"""Batched routes against loops of their single-structure calls.

Every function that takes a leading batch axis must give, for a stack,
exactly what a loop of N = 1 calls gives.  The chunked verify checks and
sample rows must reproduce the per-structure loops they replaced, with
the same seeded stream (``kernels._Normals`` at the check's or the set's
key), which pins their draw order.
"""

import io
import math
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import oracle_nijenhuis
from twistorz import cli, kernels, verify, zgeom
from twistorz.acs import (
    ACS,
    Blocks,
    _haar_rotations,
    acs_from_form,
    blocks,
    constraint_residuals,
    fundamental_form,
    haar_rotation,
    hopf_acs,
    orientation_sign,
    polar_contains,
    random_acs,
    vertex_acs,
)
from twistorz.cp3 import (
    CP3Point,
    _normalized,
    _scaled,
    acs_to_cp3,
    cp3_to_acs,
    identify,
    tetra_coords,
    wedge4,
)
from twistorz.algebra import bracket, nabla
from twistorz.exceptions import (
    DomainError,
    NotComplexError,
    NotOrthogonalError,
    NotRotationError,
    ParamDomainError,
    WrongOrientationError,
)
from twistorz.exterior import TwoForm
from twistorz.kernels import _Normals
from twistorz.nearly_kaehler import _nabla_tensor, ank_form, is_ank, nk_defect
from twistorz.nijenhuis import (
    closed_form_norm,
    cofactor_checks,
    integrable_acs,
    is_integrable,
    nijenhuis_norm,
    nijenhuis_norm_sq,
    nijenhuis_tensor,
    norm_law_residual,
)
from twistorz.zgeom import _draw, _random_ank


def _one(rng, triples, angle=True):
    """One row of the samplers' draw layout, as floats: :func:`zgeom._draw` at n = 1."""
    return [float(c[0]) for c in _draw(rng, 1, triples, angle)]


def _circle_row(rng):
    """(params, theta) of one random equatorial point, drawn as a sampler row."""
    *params, theta = _one(rng, 2)
    return zgeom.PolarPairParams(*params), theta


SIZES = [1, 7]


def _structures(n, seed=0):
    """n Haar-random members, led for n > 3 by two with det B = 0 and an ANK one."""
    fixtures = [vertex_acs(0), hopf_acs(), ACS(_random_ank(np.random.default_rng(seed), 1).matrix[0])] if n > 3 else []
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
def test_bracket_matches_loop(n):
    x, y = np.random.default_rng(n).standard_normal((2, n, 6))
    _same(bracket(x, y), [bracket(a, b) for a, b in zip(x, y)])
    _same(nabla(x, y), [nabla(a, b) for a, b in zip(x, y)])
    _same(bracket(x[0], y), [bracket(x[0], b) for b in y])  # one vector against a stack


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
    _same(closed_form_norm(blocks(stack)), [closed_form_norm(blocks(s)) for s in ss])
    _same(cofactor_checks(blocks(stack)), [cofactor_checks(blocks(s)) for s in ss])
    _same(is_ank(stack), [is_ank(s) for s in ss])


def test_cofactor_checks_hold_where_b_is_singular():
    # det B = 0 for the vertex (B = 0) and the Hopf structure, not for the random one
    chain = cofactor_checks(blocks(_stack([vertex_acs(0), random_acs(2), hopf_acs()])))
    assert np.isfinite(chain).all()
    assert np.max(chain) < 1e-12


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
    stacked = acs_to_cp3(_stack(ss))
    points = [acs_to_cp3(s) for s in ss]
    _same(stacked.coords, [p.coords for p in points])
    _same(tetra_coords(stacked), [tetra_coords(p) for p in points])
    rng = np.random.default_rng(n)
    raw = (rng.standard_normal((n, 4)) + 1j * rng.standard_normal((n, 4))) * 10.0 ** rng.integers(-300, 300, (n, 1))
    _same(_scaled(raw), [CP3Point(c).scaled() for c in raw])
    _same(_normalized(raw), [_normalized(c) for c in raw])


def _loop_proportionality(seed):
    rng = _Normals([seed, 109])
    return max(norm_law_residual(vertex_acs(0).conjugate(haar_rotation(6, rng))) for _ in range(1000))


def _loop_constraints(seed):
    rng = _Normals([seed, 115])
    worst = 0.0
    for _ in range(500):
        b = blocks(vertex_acs(0).conjugate(haar_rotation(6, rng)))
        worst = max(worst, float(np.max(constraint_residuals(b))), float(np.max(cofactor_checks(b))))
    return worst


def _loop_integrable_family(seed):
    rng = _Normals([seed, 108])
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


# --- the constructive layer: validation, 2-forms, cp3 maps, zgeom families


def _points(n, seed=0):
    """n random coordinate rows, led for n > 3 by a vertex, a pole point and a subnormal row."""
    rng = np.random.default_rng([seed, 5])
    raw = rng.standard_normal((n, 4)) + 1j * rng.standard_normal((n, 4))
    if n > 3:
        raw[0] = [0, 0, 1, 0]
        raw[1] = zgeom.circle_point(zgeom.ank_circle_params(-1.0, 0.0, 0.0), 0.3).coords
        raw[2] *= 1e-310
    return raw


def _circle_columns(n, seed=0):
    """Seven columns (pole pair parameters, angle); for n > 3 rows 0-2 are degenerate branches."""
    rng = np.random.default_rng([seed, 6])
    rows = np.array([_one(rng, 2) for _ in range(n)])
    if n > 3:
        rows[0, :6] = [-1.0, 0.0, 0.0, -1.0, 0.0, 0.0]
        rows[1, 3:6] = [-1.0, 0.0, 0.0]
        rows[2, 0:3] = [-1.0, 0.0, 0.0]
    return [np.ascontiguousarray(c) for c in rows.T]


def _single_circles(cols):
    """(params, theta) of each row of the columns, as floats."""
    return [(zgeom.PolarPairParams(*(float(c[k]) for c in cols[:6])), float(cols[6][k]))
            for k in range(len(cols[0]))]


@pytest.mark.parametrize("n", SIZES)
def test_validation_and_forms_match_loop(n):
    ss = _structures(n)
    m = _stack(ss).matrix
    _same(ACS.validate(m).matrix, [ACS.validate(s.matrix).matrix for s in ss])
    w = fundamental_form(ACS(m))
    _same(w.coeffs, [fundamental_form(s).coeffs for s in ss])
    _same(w.matrix(), [fundamental_form(s).matrix() for s in ss])
    _same(TwoForm.from_matrix(w.matrix()).coeffs, w.coeffs)
    _same(acs_from_form(w).matrix, [acs_from_form(fundamental_form(s)).matrix for s in ss])
    sigma = TwoForm.basis(4, 5)
    _same(sigma.inner(w), [sigma.inner(fundamental_form(s)) for s in ss])
    _same(polar_contains(sigma, w), [polar_contains(sigma, fundamental_form(s)) for s in ss])
    _same(_nabla_tensor(ACS(m)), [_nabla_tensor(s) for s in ss])
    _same(nk_defect(ACS(m)), [nk_defect(s) for s in ss])
    frames = _haar_rotations(n, 3, np.random.default_rng(n))
    _same(ank_form(frames).matrix, [ank_form(f).matrix for f in frames])


@pytest.mark.parametrize("n", SIZES)
def test_projective_maps_match_loop(n):
    raw, other = _points(n), _points(n, seed=1)
    points = CP3Point(raw)
    singles = [CP3Point(c) for c in raw]
    _same(cp3_to_acs(points).matrix, [cp3_to_acs(p).matrix for p in singles])
    _same(cp3_to_acs(raw).matrix, [cp3_to_acs(c).matrix for c in raw])
    _same(points.projective_distance(CP3Point(other)),
          [p.projective_distance(CP3Point(q)) for p, q in zip(singles, other)])
    bivectors = wedge4(raw, other)
    _same(bivectors, [wedge4(u, v) for u, v in zip(raw, other)])
    _same(identify(bivectors), [identify(b) for b in bivectors])
    _same(zgeom.form_from_bivectors(points).coeffs, [zgeom.form_from_bivectors(p).coeffs for p in singles])


@pytest.mark.parametrize("n", SIZES)
def test_circle_families_match_loop(n):
    cols = _circle_columns(n)
    params, theta = zgeom.PolarPairParams(*cols[:6]), cols[6]
    singles = _single_circles(cols)
    stacked_pair = zgeom.polar_pair_points(params)
    for side in range(2):
        _same(stacked_pair[side].coords, [zgeom.polar_pair_points(p)[side].coords for p, _ in singles])
    _same(zgeom.circle_point(params, theta).coords, [zgeom.circle_point(p, t).coords for p, t in singles])
    _same(zgeom.circle_form(params, theta).coeffs, [zgeom.circle_form(p, t).coeffs for p, t in singles])
    for closed_form in (zgeom.circle_closed_form, zgeom.printed_circle_form):
        form, labels = closed_form(params, theta)
        looped = [closed_form(p, t) for p, t in singles]
        _same(form.coeffs, [f.coeffs for f, _ in looped])
        assert list(labels) == [label for _, label in looped]
    inverted, angles = zgeom.invert_circle(zgeom.circle_point(params, theta))
    looped = [zgeom.invert_circle(zgeom.circle_point(p, t)) for p, t in singles]
    for field, values in vars(inverted).items():
        _same(values, [getattr(q, field) for q, _ in looped])
    _same(angles, [t for _, t in looped])


@pytest.mark.parametrize("n", SIZES)
def test_unit_triple_families_match_loop(n):
    r, x, u, *_, theta = _circle_columns(n)
    triples = list(zip(r.tolist(), x.tolist(), u.tolist()))
    for family in (zgeom.edge01_form, zgeom.edge01_closed_form,
                   zgeom.pole_plus_closed_form, zgeom.pole_minus_closed_form):
        _same(family(r, x, u).coeffs, [family(*t).coeffs for t in triples])
    acs = zgeom.ank_circle_acs(r, x, u, theta)
    _same(acs.matrix, [zgeom.ank_circle_acs(*t, th).matrix for t, th in zip(triples, theta.tolist())])
    _same(np.array(zgeom.invert_ank_circle(acs)).T,
          [zgeom.invert_ank_circle(ACS(m)) for m in acs.matrix])


def test_inversion_picks_each_members_branch_as_its_single_call_does():
    # polar points (0.6, eps, sqrt(0.52 - eps^2), 0.4i) have Hopf r + 1 of
    # about 4 eps^2 on the minus side: at the pole (eps = 0) and near it (1e-6,
    # 6e-5); the order (1, 0, 3, 2) puts eps on the plus side
    near_pole = [np.array([0.6, eps, np.sqrt(0.52 - eps * eps), 0.4j])[order]
                 for eps in (0.0, 1e-6, 6e-5) for order in ([0, 1, 2, 3], [1, 0, 3, 2])]
    raw = np.array([zgeom.sample_polar_point(np.random.default_rng(5)).coords, *near_pole])
    params, theta = zgeom.invert_circle(CP3Point(raw))
    looped = [zgeom.invert_circle(CP3Point(c)) for c in raw]
    # members 1, 3, 5 move the minus pole, 2, 4, 6 the plus pole, by eps = 0, 1e-6, 6e-5;
    # only the pole itself comes back as r = -1
    assert list(params.r_minus[1::2] == -1.0) == list(params.r_plus[2::2] == -1.0) == [True, False, False]
    for field, values in vars(params).items():
        _same(values, [getattr(p, field) for p, _ in looped])
    _same(theta, [t for _, t in looped])
    # ANK members put the plus pole at r = -1 + delta
    r = np.array([0.3, -1.0 + 1e-9, -1.0, -1.0 + 2e-8])
    acs = zgeom.ank_circle_acs(r, np.sqrt(1.0 - r * r), np.zeros(4), np.full(4, 0.7))
    _same(np.array(zgeom.invert_ank_circle(acs)).T, [zgeom.invert_ank_circle(ACS(m)) for m in acs.matrix])


@pytest.mark.parametrize("n", [1, 7, 100])
@pytest.mark.parametrize("triples, angle", [(1, False), (0, True), (1, True), (2, True)])
def test_draw_layout_is_one_normal_row_per_row(n, triples, angle):
    chunk_rng, row_rng = np.random.default_rng(17), np.random.default_rng(17)
    cols = _draw(chunk_rng, n, triples, angle)
    rows = []
    for _ in range(n):
        g = row_rng.standard_normal(3 * triples + 2 * angle)
        units = [v / np.linalg.norm(v) for v in g[:3 * triples].reshape(triples, 3)]
        angles = [[np.arctan2(g[-1], g[-2])]] if angle else []
        rows.append(np.concatenate(units + angles))
    _same(cols, np.array(rows).T)
    assert cols.flags.c_contiguous
    assert chunk_rng.standard_normal() == row_rng.standard_normal()


def test_draws_match_loop_and_leave_rng_alike():
    for draw, single in (
        (lambda rng: _random_ank(rng, 7).matrix,
         lambda rng: zgeom.ank_circle_acs(*_one(rng, 1)).matrix),
        (lambda rng: zgeom.sample_polar_point(rng, (7,)).coords,
         lambda rng: zgeom.sample_polar_point(rng).coords),
    ):
        stacked_rng, looped_rng = np.random.default_rng(13), np.random.default_rng(13)
        _same(draw(stacked_rng), [single(looped_rng) for _ in range(7)])
        assert stacked_rng.standard_normal() == looped_rng.standard_normal()


def test_stack_with_one_bad_member_names_its_index():
    m = _stack(_structures(7)).matrix.copy()
    bad = m.copy()
    bad[4] *= 1.01
    with pytest.raises(NotComplexError, match=r"^J\^2 != -identity at member 4 \(max residual"):
        ACS.validate(bad)
    with pytest.raises(NotComplexError, match=r"at member \(1, 1\)"):
        ACS.validate(bad[:6].reshape(2, 3, 6, 6))
    shear = np.eye(6)
    shear[0, 1] = 0.5
    bad = m.copy()
    bad[5] = shear @ m[5] @ np.linalg.inv(shear)  # J^2 = -1 still, not orthogonal
    with pytest.raises(NotOrthogonalError, match="at member 5"):
        ACS.validate(bad)
    bad[2] = np.nan  # an earlier member fails first
    with pytest.raises(NotComplexError, match="^expected a finite 6x6 matrix at member 2$"):
        ACS.validate(bad)
    with pytest.raises(NotComplexError) as single:
        ACS.validate(1.01 * m[4])
    assert "member" not in str(single.value)

    raw = _points(7)
    raw[3] = 0.0
    with pytest.raises(ValueError, match="cannot all vanish at member 3"):
        cp3_to_acs(raw)
    r = np.array([1.0, 0.0, 0.6])
    with pytest.raises(ParamDomainError, match="at member 1"):
        zgeom.ank_circle_acs(r, np.zeros(3), np.array([0.0, 0.5, 0.8]), np.zeros(3))

    frames = _haar_rotations(5, 3, np.random.default_rng(0))
    frames[3] *= -1.0  # determinant -1
    with pytest.raises(WrongOrientationError, match="at member 3$"):
        ank_form(frames)
    b = blocks(_stack(_structures(7)))
    c = b.C.copy()
    c[5] = 2.0 * c[0]  # |c| = 2: the vertex structure has |c| = 1
    with pytest.raises(DomainError, match=r"^1 - \|c\|\^2 = -3\.000e\+00 < 0: .* at member 5$"):
        closed_form_norm(Blocks(A=b.A, B=b.B, C=c))


# --- chunked checks and sample rows against their per-structure loops


def _loop_edge01(seed):
    rng = _Normals([seed, 101])
    worst = 0.0
    for _ in range(100):
        s, c1, c2 = _one(rng, 1, angle=False)
        gap = zgeom.edge01_form(s, c1, c2).coeffs - zgeom.edge01_closed_form(s, c1, c2).coeffs
        worst = max(worst, float(np.max(np.abs(gap))))
    return worst


def _loop_branch(seed, tag, draw, count=40, poles=False):
    rng = _Normals([seed, tag])
    worst = 0.0
    for _ in range(count):
        params, theta = draw(rng)
        constructive = zgeom.circle_form(params, theta).coeffs
        closed, _ = zgeom.circle_closed_form(params, theta)
        direct = zgeom.form_from_bivectors(zgeom.circle_point(params, theta))
        worst = max(worst, float(np.max(np.abs(constructive - closed.coeffs))),
                    float(np.max(np.abs(constructive - direct.coeffs))))
        if poles:
            plus, minus = (fundamental_form(cp3_to_acs(point)).coeffs for point in zgeom.polar_pair_points(params))
            plus_display = zgeom.pole_plus_closed_form(params.r_plus, params.x_plus, params.u_plus)
            minus_display = zgeom.pole_minus_closed_form(params.r_minus, params.x_minus, params.u_minus)
            worst = max(worst, float(np.max(np.abs(plus - plus_display.coeffs))),
                        float(np.max(np.abs(minus - minus_display.coeffs))))
    return worst


def _loop_circle_degenerate(seed):
    p = zgeom.PolarPairParams(-1.0, 0.0, 0.0, -1.0, 0.0, 0.0)
    worst = _loop_branch(seed, 102, lambda rng: (p, *_one(rng, 0)))
    rng = _Normals([seed, 103])
    for _ in range(10):
        theta, = _one(rng, 0)
        printed, _ = zgeom.printed_circle_form(p, theta)
        worst = max(worst, float(np.max(np.abs(zgeom.circle_form(p, theta).coeffs - printed.coeffs))))
    return worst


def _loop_circle_generic(seed):
    return _loop_branch(seed, 104, _circle_row, poles=True)


def _mixed_row(rng, plus_side):
    """(params, theta) with one random pole, the plus pole if ``plus_side``, and the other degenerate."""
    *pole, theta = _one(rng, 1)
    degenerate = [-1.0, 0.0, 0.0]
    return zgeom.PolarPairParams(*(pole + degenerate if plus_side else degenerate + pole)), theta


def _loop_circle_mixed(seed):
    return max(
        _loop_branch(seed, 105, lambda rng: _mixed_row(rng, True)),
        _loop_branch(seed, 106, lambda rng: _mixed_row(rng, False)),
    )


def _loop_seam_residual(theta, fixed, plus_side):
    etas = [1e-2 / 2**k for k in range(4)]

    def form(r, x, u):
        params = (r, x, u, *fixed) if plus_side else (*fixed, r, x, u)
        return zgeom.circle_form(zgeom.PolarPairParams(*params), theta).coeffs

    vals = []
    for eta in etas:
        r = -1.0 + eta * eta
        mag = math.sqrt(max(0.0, 1.0 - r * r))
        vals.append(form(r, 0.0, -mag if plus_side else mag))
    for m in range(1, 4):
        vals = [(etas[i] * vals[i + 1] - etas[i + m] * vals[i]) / (etas[i] - etas[i + m]) for i in range(4 - m)]
    return float(np.max(np.abs(vals[0] - form(-1.0, 0.0, 0.0))))


def _loop_circle_seam(seed):
    rng = _Normals([seed, 107])
    worst = 0.0
    for _ in range(5):
        *fixed, theta = _one(rng, 1)
        worst = max(worst, _loop_seam_residual(theta, fixed, True), _loop_seam_residual(theta, fixed, False))
    return worst


def _single_ank(rng):
    return zgeom.ank_circle_acs(*_one(rng, 1))


def _loop_ank_cover(seed):
    rng = _Normals([seed, 110])
    worst = 0.0
    for _ in range(200):
        acs = _single_ank(rng)
        b = blocks(acs)
        worst = max(worst, float(np.linalg.norm(b.A, axis=(-2, -1))), float(np.linalg.norm(b.C, axis=(-2, -1))),
                    abs(nijenhuis_norm(acs) - verify.max_norm()))
    return worst


def _loop_ank_inversion(seed):
    rng = _Normals([seed, 111])
    worst = 0.0
    for _ in range(100):
        b = haar_rotation(3, rng)
        z3 = np.zeros((3, 3))
        acs = ACS(np.block([[z3, b], [-b.T, z3]]))
        r, x, u, theta = zgeom.invert_ank_circle(acs)
        reproduced = zgeom.circle_point(zgeom.ank_circle_params(r, x, u), theta)
        worst = max(worst, acs_to_cp3(acs).projective_distance(reproduced))
    return worst


def _loop_polar_containment(seed):
    rng = _Normals([seed, 112])
    sigma = TwoForm.basis(4, 5)
    worst = 0.0
    for _ in range(50):
        w = fundamental_form(_single_ank(rng))
        worst = max(worst, abs(sigma.inner(w)), 0.0 if polar_contains(sigma, w) else 1.0)
    for _ in range(50):
        point = zgeom.sample_polar_point(rng)
        worst = max(worst, abs(sigma.inner(fundamental_form(cp3_to_acs(point)))))
        params, theta = zgeom.invert_circle(point)
        worst = max(worst, zgeom.circle_point(params, theta).projective_distance(point))
    return worst


def _loop_nk_basis_identity(seed):
    rng = _Normals([seed, 113])
    return max(float(np.max(np.abs(_nabla_tensor(_single_ank(rng))[range(6), range(6)]))) for _ in range(50))


def _loop_nk_defect_floor(seed):
    rng = _Normals([seed, 114])
    return max(abs(nk_defect(_single_ank(rng)) - np.sqrt(6.0)) for _ in range(50))


@pytest.mark.parametrize("seed", [0, 3, 11])
@pytest.mark.parametrize("check, loop", [
    (verify.check_edge01, _loop_edge01),
    (verify.check_circle_degenerate, _loop_circle_degenerate),
    (verify.check_circle_generic, _loop_circle_generic),
    (verify.check_circle_mixed, _loop_circle_mixed),
    (verify.check_circle_seam, _loop_circle_seam),
    (verify.check_ank_cover, _loop_ank_cover),
    (verify.check_ank_inversion, _loop_ank_inversion),
    (verify.check_polar_containment, _loop_polar_containment),
    (verify.check_nk_basis_identity, _loop_nk_basis_identity),
    (verify.check_nk_defect_floor, _loop_nk_defect_floor),
], ids=lambda f: f.__name__)
def test_chunked_constructive_checks_match_scalar_loop(check, loop, seed):
    result = check(seed)
    assert result.passed
    assert result.residual == loop(seed)


#: the per-row constructions that the chunked samplers replaced
_ROW_SAMPLERS = {
    "ank": lambda rng, _: _single_ank(rng),
    "integrable": lambda rng, _: integrable_acs(haar_rotation(3, rng), haar_rotation(3, rng)),
    "random": lambda _, row_seed: random_acs(row_seed),
    "polar": lambda rng, _: cp3_to_acs(zgeom.circle_point(*_circle_row(rng))),
    "edge01": lambda rng, _: acs_from_form(zgeom.edge01_form(*_one(rng, 1, angle=False))),
}


@pytest.mark.parametrize("set_name", sorted(_ROW_SAMPLERS))
def test_sample_rows_match_single_structure_loop(set_name, monkeypatch):
    monkeypatch.setattr(kernels, "_CHUNK", 20)  # 45 rows cross two chunk boundaries
    count, seed = 45, 3
    rng = _Normals([seed, sum(map(ord, set_name))])
    looped = [_ROW_SAMPLERS[set_name](rng, [seed, k]) for k in range(count)]
    chunks = list(cli._sample_structures(set_name, count, seed))
    assert [c.matrix.shape[0] for c in chunks] == [20, 20, 5]
    _same(np.concatenate([c.matrix for c in chunks]), [s.matrix for s in looped])
    rows = [cli._cloud_row(values) for s in looped for values in zip(*cli._evaluate(ACS(s.matrix[None])))]
    out = io.StringIO()
    cli._write_cloud(SimpleNamespace(set=set_name, count=count, seed=seed), out)
    assert out.getvalue() == "\n".join([cli.CSV_HEADER, *rows]) + "\n"
