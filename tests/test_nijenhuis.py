"""Nijenhuis functional: fixtures, calibration, closed-form law, integrability."""

import re

import numpy as np
import pytest

from conftest import oracle_nijenhuis_norm_sq, random_rotation3
from twistorz.acs import (
    Blocks,
    ank_reference_acs,
    blocks,
    hopf_acs,
    random_acs,
    vertex_acs,
)
from twistorz.exceptions import DomainError, NotRotationError
from twistorz.nijenhuis import (
    _cofactor_matrix,
    calibration_constant,
    closed_form_norm,
    cofactor_checks,
    integrable_acs,
    is_integrable,
    max_norm,
    nijenhuis_norm,
    nijenhuis_tensor,
    norm_law_residual,
)

#: measured with the brute-force expansion before the library was written;
#: the literature's normalization reports (8 sqrt(3))^2 = 192 instead
KAPPA_MEASURED = 48.0


def test_hopf_structure_tensor_vanishes():
    assert np.max(np.abs(nijenhuis_tensor(hopf_acs()))) < 1e-15


def test_swap_structure_pair_fixture():
    n = nijenhuis_tensor(ank_reference_acs())
    # frozen from the pre-build expansion: N(e1, e2) = -e3 + e6
    assert np.array_equal(n[:, 0, 1], np.array([0.0, 0.0, -1.0, 0.0, 0.0, 1.0]))
    assert n[0, 0, 1] == n[1, 0, 1] == n[3, 0, 1] == n[4, 0, 1] == 0.0


def test_antisymmetry_in_arguments():
    n = nijenhuis_tensor(random_acs(3))
    assert np.max(np.abs(n + n.transpose(0, 2, 1))) == 0.0


def test_calibration_constant_frozen_value():
    assert calibration_constant() == pytest.approx(KAPPA_MEASURED, abs=1e-12)
    assert max_norm() == pytest.approx(4.0 * np.sqrt(3.0), abs=1e-12)
    # the oracle agrees
    assert oracle_nijenhuis_norm_sq(ank_reference_acs().matrix) == pytest.approx(
        KAPPA_MEASURED, abs=1e-12
    )


def test_norm_examples():
    assert nijenhuis_norm(hopf_acs()) < 1e-12
    assert nijenhuis_norm(ank_reference_acs()) == pytest.approx(max_norm(), rel=1e-12)


def test_closed_form_endpoints():
    b_swap = blocks(ank_reference_acs())
    assert closed_form_norm(b_swap) == pytest.approx(max_norm(), rel=1e-12)
    b_hopf = blocks(hopf_acs())
    assert closed_form_norm(b_hopf) == pytest.approx(0.0, abs=1e-12)


def test_closed_form_matches_tensor_on_random():
    for seed in range(100):
        acs = random_acs(seed)
        direct = nijenhuis_norm(acs)
        closed = closed_form_norm(blocks(acs))
        assert closed == pytest.approx(direct, rel=1e-9, abs=1e-9)


def test_closed_form_domain_error():
    c = np.array([[0.0, 2.0, 0.0], [-2.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    with pytest.raises(DomainError):
        closed_form_norm(Blocks(A=np.zeros((3, 3)), B=np.eye(3), C=c))


def test_closed_form_domain_error_names_no_member_of_one_structure():
    c = np.array([[0.0, 2.0, 0.0], [-2.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    message = r"1 - |c|^2 = -3.000e+00 < 0: not blocks of a valid structure"
    with pytest.raises(DomainError, match=re.escape(message) + "$"):
        closed_form_norm(Blocks(A=np.zeros((3, 3)), B=np.eye(3), C=c))


def test_closed_form_norm_is_zero_in_the_tolerance_band():
    # blocks of a structure valid to DEFAULT_TOL may put |c| just above 1:
    # the law reads 0 there, not NaN; beyond the tolerance it raises
    b = blocks(vertex_acs(0))
    assert closed_form_norm(Blocks(A=b.A, B=b.B, C=(1.0 + 1e-12) * b.C)) == 0.0
    with pytest.raises(DomainError):
        closed_form_norm(Blocks(A=b.A, B=b.B, C=(1.0 + 1e-8) * b.C))


def test_cofactor_checks_swap_structure():
    b = blocks(ank_reference_acs())
    r = cofactor_checks(b)
    assert r[0] < 1e-15
    assert r[1] < 1e-12
    assert r[2] < 1e-12
    # |B^a|^2 itself is 3 for an orthogonal block
    assert np.sum(np.linalg.inv(b.B).T ** 2) * np.linalg.det(b.B) ** 2 == pytest.approx(3.0)


def test_cofactor_checks_random():
    for seed in range(100):
        r = cofactor_checks(blocks(random_acs(seed)))
        assert float(np.max(r)) < 1e-9


def test_cofactor_checks_evidence_about_z_lies_in_i_and_iii():
    # (ii) is Cauchy-Binet, true of every 3x3 B: B scaled off Z keeps it at rounding
    for seed in range(20):
        b = blocks(random_acs(seed))
        r = cofactor_checks(Blocks(A=b.A, B=1.01 * b.B, C=b.C))
        assert r[1] < 1e-14
        assert r[0] > 1e-3 and r[2] > 1e-4


def test_cofactor_checks_hopf_det_zero():
    b = blocks(hopf_acs())
    r = cofactor_checks(b)
    assert r[0] < 1e-12  # B^T B = 1 + C^2 holds even with det B = 0
    assert r[1] < 1e-12  # |B^a|^2 = e2(B^T B) holds for every B, det B = 0 included
    assert r[2] < 1e-12


def test_is_integrable_fixtures():
    assert is_integrable(hopf_acs())
    assert not is_integrable(ank_reference_acs())
    assert is_integrable(vertex_acs(0))


def test_integrable_family_identity_case():
    acs = integrable_acs(np.eye(3), np.eye(3))
    assert np.array_equal(acs.matrix, hopf_acs().matrix)


def test_integrable_family_random(rng):
    for _ in range(50):
        acs = integrable_acs(random_rotation3(rng), random_rotation3(rng))
        assert is_integrable(acs)
        assert abs(float(np.linalg.norm(blocks(acs).c)) - 1.0) < 1e-12


def test_integrable_family_rejects_bad_blocks(rng):
    with pytest.raises(NotRotationError):
        integrable_acs(np.eye(3) * 2.0, np.eye(3))
    reflect = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(NotRotationError):
        integrable_acs(reflect, np.eye(3))
    with pytest.raises(NotRotationError, match="^block is not orthogonal$"):
        integrable_acs(np.eye(3), np.full((3, 3), np.nan))
    # entries are bounded before O^T O is formed, which would overflow (a RuntimeWarning fails the run)
    with pytest.raises(NotRotationError, match="^block is not orthogonal$"):
        integrable_acs(1e200 * np.ones((3, 3)), np.eye(3))


@pytest.mark.parametrize("o1, o2", [(np.eye(2), np.eye(2)), (np.eye(3), np.stack([np.eye(3)] * 2))],
                         ids=["2x2", "unequal-stacks"])
def test_integrable_family_rejects_misshapen_blocks(o1, o2):
    with pytest.raises(NotRotationError) as excinfo:
        integrable_acs(o1, o2)
    assert str(excinfo.value) == "blocks must be 3x3"


def test_proportionality_law():
    for seed in range(300):
        assert norm_law_residual(random_acs(seed)) < 1e-9


def test_ratio_law():
    ref = nijenhuis_norm(ank_reference_acs())
    for seed in range(50):
        acs = random_acs(seed)
        c = blocks(acs).c
        expected = np.sqrt(max(0.0, 1.0 - float(c @ c)))
        assert nijenhuis_norm(acs) / ref == pytest.approx(expected, abs=1e-9)


def test_conjugation_invariance(rng):
    for seed in range(20):
        acs = random_acs(seed)
        q = np.zeros((6, 6))
        q[0:3, 0:3] = random_rotation3(rng)
        q[3:6, 3:6] = random_rotation3(rng)
        conj = acs.conjugate(q)
        assert nijenhuis_norm(conj) == pytest.approx(nijenhuis_norm(acs), abs=1e-9)


def test_integrability_iff_unit_c_and_a(rng):
    for seed in range(100):
        acs = random_acs(seed)
        b = blocks(acs)
        integrable = is_integrable(acs)
        unit_c = abs(float(np.linalg.norm(b.c)) - 1.0) < 1e-9
        unit_a = abs(float(np.linalg.norm(b.a)) - 1.0) < 1e-9
        assert integrable == unit_c == unit_a
    for _ in range(20):
        acs = integrable_acs(random_rotation3(rng), random_rotation3(rng))
        b = blocks(acs)
        assert abs(float(np.linalg.norm(b.c)) - 1.0) < 1e-12
        assert abs(float(np.linalg.norm(b.a)) - 1.0) < 1e-12


def test_singular_b_implies_integrable(rng):
    # integrable family members and the vertex structures all have det B = 0
    candidates = [vertex_acs(k) for k in range(4)]
    candidates += [integrable_acs(random_rotation3(rng), random_rotation3(rng)) for _ in range(20)]
    for acs in candidates:
        assert abs(np.linalg.det(blocks(acs).B)) < 1e-12
        assert is_integrable(acs)


def test_cofactor_matrix_matches_minors(rng):
    """Reference: signed 2x2 minors, the loop the cross products replaced."""
    for _ in range(100):
        m = rng.standard_normal((3, 3))
        expected = np.empty((3, 3))
        for i in range(3):
            for j in range(3):
                minor = np.delete(np.delete(m, i, axis=0), j, axis=1)
                expected[i, j] = (-1.0) ** (i + j) * (minor[0, 0] * minor[1, 1] - minor[0, 1] * minor[1, 0])
        assert np.array_equal(_cofactor_matrix(m), expected)
