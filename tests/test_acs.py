"""Validation, orientation, forms, blocks and sampling of Z."""

import numpy as np
import pytest

from conftest import oracle_orientation_sign, random_rotation3
from twistorz.acs import (
    ACS,
    Blocks,
    REFERENCE_ORIENTATION,
    acs_from_form,
    ank_reference_acs,
    blocks,
    constraint_residuals,
    fundamental_form,
    hopf_acs,
    orientation_sign,
    random_acs,
    vertex_acs,
)
from twistorz.exceptions import (
    NotComplexError,
    NotInZError,
    NotOrthogonalError,
    WrongOrientationError,
)
from twistorz.exterior import TwoForm


def _pair_matrix(pairs):
    m = np.zeros((6, 6))
    for i, j, s in pairs:
        m[j, i] = s
        m[i, j] = -s
    return m


def test_vertex_structure_is_valid():
    acs = ACS.validate(_pair_matrix([(0, 1, 1), (2, 3, 1), (4, 5, 1)]))
    assert np.array_equal(acs.matrix, vertex_acs(0).matrix)


def test_flipped_block_is_wrong_orientation():
    m = _pair_matrix([(0, 1, 1), (2, 3, 1), (4, 5, -1)])
    # independent oracle: explicit adapted frame determinant
    frame = np.column_stack([np.eye(6)[:, k] for k in (0, 2, 4)] + [m[:, k] for k in (0, 2, 4)])
    assert np.sign(np.linalg.det(frame)) == -REFERENCE_ORIENTATION
    with pytest.raises(WrongOrientationError):
        ACS.validate(m)


def test_zero_matrix_not_complex():
    with pytest.raises(NotComplexError):
        ACS.validate(np.zeros((6, 6)))


@pytest.mark.parametrize("call, error, message", [
    (lambda: ACS.validate(np.eye(5)), NotComplexError, "expected a finite 6x6 matrix"),
    (lambda: vertex_acs(4), ValueError, "vertex index must be 0..3"),
], ids=["validate-5x5", "vertex-4"])
def test_malformed_input_raises_its_message(call, error, message):
    with pytest.raises(error) as excinfo:
        call()
    assert str(excinfo.value) == message


def test_non_orthogonal_rejected(rng):
    # S J S^-1 still squares to -1 but is no longer metric-compatible
    s = np.eye(6) + 0.2 * rng.standard_normal((6, 6))
    m = s @ vertex_acs(0).matrix @ np.linalg.inv(s)
    with pytest.raises(NotOrthogonalError):
        ACS.validate(m)


def test_reference_orientation_value():
    # measured once and pinned: the adapted-frame determinant of the
    # reference structure is negative
    assert REFERENCE_ORIENTATION == -1


def test_all_vertices_share_reference_orientation():
    for k in range(4):
        assert orientation_sign(vertex_acs(k).matrix) == REFERENCE_ORIENTATION


def test_named_structures_validate():
    for acs in (hopf_acs(), ank_reference_acs(), *(vertex_acs(k) for k in range(4))):
        ACS.validate(acs.matrix)


def test_orientation_frame_independence(rng):
    for acs in (vertex_acs(0), hopf_acs(), ank_reference_acs(), random_acs(5)):
        expected = orientation_sign(acs.matrix)
        found = 0
        while found < 10:
            x = rng.standard_normal((6, 3))
            frame = np.column_stack([x, acs.matrix @ x])
            det = np.linalg.det(frame)
            if abs(det) < 1e-3:
                continue
            assert np.sign(det) == expected
            found += 1


def test_fundamental_form_examples():
    w0 = fundamental_form(vertex_acs(0))
    assert np.allclose(w0.coeffs, TwoForm.from_pairs({(0, 1): 1, (2, 3): 1, (4, 5): 1}).coeffs, rtol=0, atol=1e-12)
    wh = fundamental_form(hopf_acs())
    assert np.allclose(wh.coeffs, TwoForm.from_pairs({(0, 3): 1, (1, 2): 1, (4, 5): 1}).coeffs, rtol=0, atol=1e-12)
    w2 = fundamental_form(vertex_acs(2))
    assert np.allclose(w2.coeffs, TwoForm.from_pairs({(0, 1): -1, (2, 3): 1, (4, 5): -1}).coeffs, rtol=0, atol=1e-12)


def test_acs_from_form_examples():
    w0 = TwoForm.from_pairs({(0, 1): 1, (2, 3): 1, (4, 5): 1})
    assert np.array_equal(acs_from_form(w0).matrix, vertex_acs(0).matrix)
    w1 = TwoForm.from_pairs({(0, 1): 1, (2, 3): -1, (4, 5): -1})
    assert np.array_equal(acs_from_form(w1).matrix, vertex_acs(1).matrix)
    with pytest.raises(NotInZError):
        acs_from_form(TwoForm.basis(0, 1))


def test_form_round_trip_random(rng):
    for seed in range(20):
        acs = random_acs(seed)
        back = acs_from_form(fundamental_form(acs))
        assert np.max(np.abs(back.matrix - acs.matrix)) < 1e-12


def test_blocks_of_named_structures():
    b = blocks(ank_reference_acs())
    assert np.max(np.abs(b.A)) == 0.0
    assert np.max(np.abs(b.C)) == 0.0
    assert np.max(np.abs(b.B.T @ b.B - np.eye(3))) < 1e-15

    bh = blocks(hopf_acs())
    assert np.allclose(np.abs(bh.a), [0, 0, 1])
    assert np.allclose(np.abs(bh.c), [0, 0, 1])
    assert abs(np.linalg.det(bh.B)) < 1e-15

    b0 = blocks(vertex_acs(0))
    # one cross-factor entry only; the vertex B block is singular, not zero
    assert abs(np.linalg.det(b0.B)) < 1e-15
    assert np.count_nonzero(b0.B) == 1
    assert abs(np.linalg.norm(b0.a) - 1.0) < 1e-15
    assert abs(np.linalg.norm(b0.c) - 1.0) < 1e-15


def test_blocks_reassemble_bit_exact(rng):
    for seed in range(10):
        acs = random_acs(seed)
        assert np.array_equal(blocks(acs).reassemble(), acs.matrix)


def test_constraints_on_validated(rng):
    worst = 0.0
    for seed in range(50):
        worst = max(worst, float(np.max(constraint_residuals(blocks(random_acs(seed))))))
    assert worst < 1e-9


def test_constraints_orthogonal_block_case():
    b = Blocks(A=np.zeros((3, 3)), B=np.eye(3), C=np.zeros((3, 3)))
    assert np.max(constraint_residuals(b)) == 0.0


def test_constraints_scaled_block_case():
    b = Blocks(A=np.zeros((3, 3)), B=2.0 * np.eye(3), C=np.zeros((3, 3)))
    res = constraint_residuals(b)
    assert np.allclose(res[:6], 3.0)  # norm rows read 4 - 1
    assert np.max(res[6:]) == 0.0


def test_random_acs_validates_and_is_deterministic():
    a = random_acs(123)
    b = random_acs(123)
    assert np.array_equal(a.matrix, b.matrix)
    assert np.max(np.abs(a.matrix @ a.matrix + np.eye(6))) < 1e-12


def test_random_acs_c_norm_statistics():
    vals = [float(blocks(random_acs(seed)).c @ blocks(random_acs(seed)).c) for seed in range(1000)]
    mean = float(np.mean(vals))
    assert 0.0 < mean < 1.0


def test_block_conjugation_rotates_a_and_c(rng):
    def axial(s):
        # skew matrix [s]_x in the standard convention
        return np.array([[0, -s[2], s[1]], [s[2], 0, -s[0]], [-s[1], s[0], 0.0]])

    def axial_vector(m):
        return np.array([m[2, 1], m[0, 2], m[1, 0]])

    for seed in range(10):
        acs = random_acs(seed)
        o1 = random_rotation3(rng)
        o2 = random_rotation3(rng)
        q = np.zeros((6, 6))
        q[0:3, 0:3] = o1
        q[3:6, 3:6] = o2
        conj = ACS.validate(q @ acs.matrix @ q.T)
        b_old, b_new = blocks(acs), blocks(conj)
        assert np.max(np.abs(axial_vector(b_new.A) - o1 @ axial_vector(b_old.A))) < 1e-12
        assert np.max(np.abs(axial_vector(b_new.C) - o2 @ axial_vector(b_old.C))) < 1e-12
        assert abs(np.linalg.norm(b_new.a) - np.linalg.norm(b_old.a)) < 1e-12
        assert abs(np.linalg.norm(b_new.c) - np.linalg.norm(b_old.c)) < 1e-12


def test_orientation_matches_adapted_frame_oracle():
    # Haar samples of J and of the orientation-reversed -J
    for seed in range(2000):
        m = random_acs([seed, 3]).matrix
        for sample in (m, -m):
            assert orientation_sign(sample) == oracle_orientation_sign(sample)


def test_orientation_sign_outside_the_domain():
    assert orientation_sign(-vertex_acs(0).matrix) == 1
    # outside J in O(6) with J^2 = -1 the Pfaffian can vanish
    assert orientation_sign(np.zeros((6, 6))) == 0
