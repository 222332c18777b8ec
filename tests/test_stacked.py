"""Batched routes against loops of their single-structure calls.

Every function that takes a leading batch axis must give, for a stack,
exactly what a loop of N = 1 calls gives.  The chunked verify checks must
reproduce the residual of the per-structure loop they replaced, with the
same rng, which pins their draw order.
"""

import numpy as np
import pytest

from conftest import oracle_nijenhuis
from twistorz import kernels, verify
from twistorz.acs import (
    ACS,
    _haar_rotations,
    blocks,
    constraint_residuals,
    haar_rotation,
    hopf_acs,
    orientation_sign,
    random_acs,
    vertex_acs,
)
from twistorz.cp3 import CP3Point, _normalized, _point_coords, _scaled, _tetra_coords, acs_to_cp3, tetra_coords
from twistorz.exceptions import NotRotationError
from twistorz.nearly_kaehler import is_ank
from twistorz.nijenhuis import (
    cofactor_checks,
    integrable_acs,
    is_integrable,
    nijenhuis_norm,
    nijenhuis_norm_sq,
    nijenhuis_tensor,
    norm_law_residual,
)
from twistorz.zgeom import _random_ank

SIZES = [1, 7]


def _structures(n, seed=0):
    """n Haar-random members, led for n > 3 by two with det B = 0 and an ANK one."""
    fixtures = [vertex_acs(0), hopf_acs(), _random_ank(np.random.default_rng(seed))] if n > 3 else []
    return fixtures + [random_acs([seed, k]) for k in range(n - len(fixtures))]


def _stack(structures):
    return ACS(np.stack([s.matrix for s in structures]))


def _same(stacked, looped):
    stacked = np.asarray(stacked)
    looped = np.asarray(looped)
    assert stacked.shape == looped.shape
    np.testing.assert_array_equal(stacked, looped)


@pytest.mark.parametrize("n", SIZES)
def test_kernels_match_loop(n):
    ss = _structures(n)
    m = _stack(ss).matrix
    _same(kernels.nijenhuis_components(m), [kernels.nijenhuis_components(s.matrix) for s in ss])
    _same(kernels.nijenhuis_norm_sq(m), [kernels.nijenhuis_norm_sq(s.matrix) for s in ss])
    qs = _haar_rotations(n, 6, np.random.default_rng(n))
    j_ref = vertex_acs(0).matrix
    _same(kernels.conjugated_norm_sq(qs, j_ref), [kernels.conjugated_norm_sq(q, j_ref) for q in qs])


def test_stacked_kernel_matches_oracle():
    ss = _structures(7, seed=3)
    got = kernels.nijenhuis_components(_stack(ss).matrix)
    assert got.shape == (7, 6, 6, 6)
    for g, s in zip(got, ss):
        assert np.max(np.abs(g - oracle_nijenhuis(s.matrix))) < 1e-12


def test_single_matrix_results_keep_scalar_types():
    acs = random_acs(1)
    assert type(kernels.nijenhuis_norm_sq(acs.matrix)) is float
    assert type(kernels.conjugated_norm_sq(np.eye(6), acs.matrix)) is float
    assert type(nijenhuis_norm(acs)) is float
    assert type(norm_law_residual(acs)) is float
    assert type(orientation_sign(acs.matrix)) is int
    assert type(is_ank(acs)) is bool
    assert type(is_integrable(acs)) is bool
    assert cofactor_checks(blocks(acs)).shape == (3,)
    assert constraint_residuals(blocks(acs)).shape == (16,)


@pytest.mark.parametrize("n", SIZES)
def test_acs_layer_matches_loop(n):
    ss = _structures(n)
    stack = _stack(ss)
    _same(orientation_sign(stack.matrix), [orientation_sign(s.matrix) for s in ss])
    _same(orientation_sign(-stack.matrix), [orientation_sign(-s.matrix) for s in ss])
    b = blocks(stack)
    for field in ("A", "B", "C", "a", "c"):
        _same(getattr(b, field), [getattr(blocks(s), field) for s in ss])
    _same(b.reassemble(), stack.matrix)
    _same(constraint_residuals(b), [constraint_residuals(blocks(s)) for s in ss])
    qs = _haar_rotations(n, 6, np.random.default_rng(n))
    _same(vertex_acs(0).conjugate(qs).matrix, [vertex_acs(0).conjugate(q).matrix for q in qs])


@pytest.mark.parametrize("dim", [3, 6])
@pytest.mark.parametrize("n", SIZES)
def test_haar_rotations_match_loop_and_leave_rng_alike(n, dim):
    stacked_rng, looped_rng = np.random.default_rng(11), np.random.default_rng(11)
    stacked = _haar_rotations(n, dim, stacked_rng)
    looped = [haar_rotation(dim, looped_rng) for _ in range(n)]
    _same(stacked, looped)
    assert stacked_rng.standard_normal() == looped_rng.standard_normal()
    assert np.allclose(np.linalg.det(stacked), 1.0, atol=1e-12)


@pytest.mark.parametrize("n", SIZES)
def test_nijenhuis_layer_matches_loop(n):
    ss = _structures(n)
    stack = _stack(ss)
    _same(nijenhuis_tensor(stack), [nijenhuis_tensor(s) for s in ss])
    _same(nijenhuis_norm_sq(stack), [nijenhuis_norm_sq(s) for s in ss])
    _same(nijenhuis_norm(stack), [nijenhuis_norm(s) for s in ss])
    _same(is_integrable(stack), [is_integrable(s) for s in ss])
    _same(norm_law_residual(stack), [norm_law_residual(s) for s in ss])
    _same(cofactor_checks(blocks(stack)), [cofactor_checks(blocks(s)) for s in ss])
    _same(is_ank(stack), [is_ank(s) for s in ss])


def test_cofactor_checks_nan_only_where_b_is_singular():
    chain = cofactor_checks(blocks(_stack([vertex_acs(0), random_acs(2), hopf_acs()])))
    assert np.isnan(chain[:, 1]).tolist() == [True, False, True]
    assert not np.isnan(chain[:, [0, 2]]).any()


@pytest.mark.parametrize("n", SIZES)
def test_integrable_family_matches_loop(n):
    rots = _haar_rotations(2 * n, 3, np.random.default_rng(n))
    stacked = integrable_acs(rots[0::2], rots[1::2])
    _same(stacked.matrix, [integrable_acs(o1, o2).matrix for o1, o2 in zip(rots[0::2], rots[1::2])])


def test_integrable_family_validates_every_block():
    rots = _haar_rotations(6, 3, np.random.default_rng(0))
    bad = rots.copy()
    bad[4, :, 0] *= -1.0  # one block of the stack with determinant -1
    with pytest.raises(NotRotationError, match="determinant"):
        integrable_acs(rots[:3], bad[3:])
    bad = rots.copy()
    bad[1] *= 1.01
    with pytest.raises(NotRotationError, match="orthogonal"):
        integrable_acs(bad[:3], rots[3:])


@pytest.mark.parametrize("n", SIZES)
def test_projective_core_matches_loop(n):
    ss = _structures(n)
    coords = _point_coords(_stack(ss).matrix)
    points = [acs_to_cp3(s) for s in ss]
    _same(coords, [p.coords for p in points])
    _same(_tetra_coords(coords), [tetra_coords(p) for p in points])
    rng = np.random.default_rng(n)
    raw = (rng.standard_normal((n, 4)) + 1j * rng.standard_normal((n, 4))) * 10.0 ** rng.integers(-300, 300, (n, 1))
    _same(_scaled(raw), [CP3Point(c).scaled() for c in raw])
    _same(_normalized(raw), [CP3Point(c).normalized().coords for c in raw])


def _loop_proportionality(seed):
    rng = np.random.default_rng([seed, 109])
    return max(norm_law_residual(vertex_acs(0).conjugate(haar_rotation(6, rng))) for _ in range(1000))


def _loop_constraints(seed):
    rng = np.random.default_rng([seed, 115])
    worst = 0.0
    for _ in range(500):
        b = blocks(vertex_acs(0).conjugate(haar_rotation(6, rng)))
        worst = max(worst, float(np.max(constraint_residuals(b))), float(np.nanmax(cofactor_checks(b))))
    return worst


def _loop_integrable_family(seed):
    rng = np.random.default_rng([seed, 108])
    worst = 0.0
    for _ in range(200):
        acs = integrable_acs(haar_rotation(3, rng), haar_rotation(3, rng))
        worst = max(worst, nijenhuis_norm(acs), abs(float(np.linalg.norm(blocks(acs).c)) - 1.0))
    return worst


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("check, loop", [
    (verify.check_proportionality, _loop_proportionality),
    (verify.check_constraints, _loop_constraints),
    (verify.check_integrable_family, _loop_integrable_family),
])
def test_chunked_checks_match_scalar_loop(check, loop, seed):
    result = check(seed)
    assert result.passed
    assert result.residual == loop(seed)
