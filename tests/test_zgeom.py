"""Lines through two points, the edge through vertices 0 and 1, polar sets, circle branches and the ANK decomposition."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_rotation3, unit3
from twistorz.acs import ACS, ank_reference_acs, blocks, fundamental_form, hopf_acs, polar_contains
from twistorz.cp3 import CP3Point, acs_to_cp3, cp3_to_acs
from twistorz.exceptions import ParamDomainError, ZeroFormError
from twistorz.exterior import TwoForm
from twistorz.nearly_kaehler import _nabla_tensor, is_ank
from twistorz.verify import check_polar_containment
from twistorz.zgeom import (
    PolarPairParams,
    ank_circle_acs,
    ank_circle_params,
    circle_closed_form,
    circle_form,
    circle_point,
    edge01_closed_form,
    edge01_form,
    form_from_bivectors,
    invert_ank_circle,
    invert_circle,
    polar_pair_points,
    pole_minus_closed_form,
    pole_plus_closed_form,
    printed_circle_form,
    sample_polar_point,
)

OMEGA0 = TwoForm.from_pairs({(0, 1): 1, (2, 3): 1, (4, 5): 1})
OMEGA1 = TwoForm.from_pairs({(0, 1): 1, (2, 3): -1, (4, 5): -1})
SIGMA56 = TwoForm.basis(4, 5)


def _vertex_point(k):
    c = np.zeros(4, dtype=complex)
    c[k] = 1.0
    return CP3Point(c)


# --- lines through two points ------------------------------------------------


def test_edge03_contains_hopf_point():
    # the Hopf structure is [1 : 0 : 0 : -1], on the edge through vertices 0 and 3
    p = CP3Point(_vertex_point(0).coords - _vertex_point(3).coords)
    assert p.projective_distance(acs_to_cp3(hopf_acs())) < 1e-12


def test_edge_points_lie_in_z(rng):
    # all of CP^3 corresponds to Z, so every point alpha z + beta u of a line
    # through two points builds a valid structure
    for _ in range(10):
        z, u = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        alpha, beta = rng.standard_normal((2, 10)) + 1j * rng.standard_normal((2, 10))
        acs = cp3_to_acs(alpha[:, None] * z + beta[:, None] * u)
        ACS.validate(acs.matrix)


# --- edge 01 family ---------------------------------------------------------


def test_edge01_vertex_endpoints():
    assert np.allclose(edge01_form(1.0, 0.0, 0.0).coeffs, OMEGA0.coeffs, rtol=0, atol=1e-12)
    assert np.allclose(edge01_form(0.0, 1.0, 0.0).coeffs, OMEGA1.coeffs, rtol=0, atol=1e-12)


def test_edge01_midpoint_example():
    s = 1.0 / np.sqrt(2.0)
    w = edge01_form(s, s, 0.0)
    expected = TwoForm.from_pairs({(0, 1): 1.0, (2, 5): -1.0, (3, 4): -1.0})
    assert np.allclose(w.coeffs, expected.coeffs, rtol=0, atol=1e-12)


def test_edge01_constructive_matches_closed(rng):
    for _ in range(100):
        s, c1, c2 = unit3(rng)
        w = edge01_form(float(s), float(c1), float(c2))
        closed = edge01_closed_form(float(s), float(c1), float(c2))
        assert np.max(np.abs(w.coeffs - closed.coeffs)) < 1e-9


def test_edge01_rejects_off_sphere():
    with pytest.raises(ParamDomainError):
        edge01_form(1.0, 1.0, 0.0)


@pytest.mark.parametrize("family", [
    lambda s, x, u: PolarPairParams(s, x, u, 1.0, 0.0, 0.0),
    edge01_form,
    edge01_closed_form,
    lambda s, x, u: ank_circle_acs(s, x, u, 0.0),
], ids=["PolarPairParams", "edge01_form", "edge01_closed_form", "ank_circle_acs"])
def test_non_finite_triples_are_off_the_sphere(family):
    # |nan|^2 - 1 compares false against any tolerance, so the test is "not within it"
    with pytest.raises(ParamDomainError, match=r"unit sphere \(\|\.\|\^2 = nan\)$"):
        family(float("nan"), 0.0, 0.0)
    r = np.array([1.0, 0.0, np.nan, 0.6])
    with pytest.raises(ParamDomainError, match="at member 2$"):
        family(r, np.array([0.0, 1.0, 0.0, 0.8]), np.zeros(4))


# --- polar sets ----------------------------------------------------------------


def test_polar_examples(rng):
    r, x, u = unit3(rng)
    w_ank = fundamental_form(ank_circle_acs(float(r), float(x), float(u), 0.7))
    assert polar_contains(SIGMA56, w_ank)
    assert not polar_contains(SIGMA56, OMEGA0)
    assert not polar_contains(SIGMA56, OMEGA1)
    with pytest.raises(ZeroFormError):
        polar_contains(TwoForm(np.zeros(15)), OMEGA0)


# --- poles -------------------------------------------------------------------


def test_pole_vertex_case():
    plus, minus = polar_pair_points(PolarPairParams(1, 0, 0, 1, 0, 0))
    assert plus.projective_distance(_vertex_point(0)) < 1e-15
    assert minus.projective_distance(_vertex_point(1)) < 1e-15


def test_pole_degenerate_case():
    plus, minus = polar_pair_points(PolarPairParams(-1, 0, 0, -1, 0, 0))
    assert plus.projective_distance(_vertex_point(3)) < 1e-15
    assert minus.projective_distance(_vertex_point(2)) < 1e-15


def test_pole_forms_match_correspondence(rng):
    for _ in range(50):
        r, x, u = (float(v) for v in unit3(rng))
        if abs(r + 1.0) < 1e-6:
            continue
        params = PolarPairParams(r, x, u, r, x, u)
        plus, minus = polar_pair_points(params)
        w_plus = fundamental_form(cp3_to_acs(plus))
        w_minus = fundamental_form(cp3_to_acs(minus))
        assert np.max(np.abs(w_plus.coeffs - pole_plus_closed_form(r, x, u).coeffs)) < 1e-9
        assert np.max(np.abs(w_minus.coeffs - pole_minus_closed_form(r, x, u).coeffs)) < 1e-9


# --- circles -----------------------------------------------------------------


def _random_params(rng):
    rp, xp, up = (float(v) for v in unit3(rng))
    rm, xm, um = (float(v) for v in unit3(rng))
    return PolarPairParams(rp, xp, up, rm, xm, um)


def test_circle_periodicity(rng):
    params = _random_params(rng)
    p0 = circle_point(params, 0.0)
    p1 = circle_point(params, 2.0 * np.pi)
    assert p0.projective_distance(p1) < 1e-12


def test_circle_points_are_polar(rng):
    for _ in range(25):
        params = _random_params(rng)
        theta = float(rng.uniform(0, 2 * np.pi))
        w = circle_form(params, theta)
        assert polar_contains(SIGMA56, w)


def test_circle_closed_form_branches(rng):
    cases = []
    for _ in range(25):
        cases.append((_random_params(rng), "generic"))
        r, x, u = (float(v) for v in unit3(rng))
        cases.append((PolarPairParams(r, x, u, -1.0, 0.0, 0.0), "minus_degenerate"))
        cases.append((PolarPairParams(-1.0, 0.0, 0.0, r, x, u), "plus_degenerate"))
    cases.append((PolarPairParams(-1, 0, 0, -1, 0, 0), "both_degenerate"))
    for params, expected_branch in cases:
        theta = float(rng.uniform(0, 2 * np.pi))
        constructive = circle_form(params, theta)
        closed, branch = circle_closed_form(params, theta)
        assert branch == expected_branch
        assert np.max(np.abs(constructive.coeffs - closed.coeffs)) < 1e-9
        direct = form_from_bivectors(circle_point(params, theta))
        assert np.max(np.abs(constructive.coeffs - direct.coeffs)) < 1e-9


def test_printed_degenerate_branch_matches_exactly(rng):
    params = PolarPairParams(-1, 0, 0, -1, 0, 0)
    for _ in range(10):
        theta = float(rng.uniform(0, 2 * np.pi))
        printed, branch = printed_circle_form(params, theta)
        assert branch == "both_degenerate"
        assert np.max(np.abs(circle_form(params, theta).coeffs - printed.coeffs)) < 1e-9


def test_printed_generic_branch_is_twice_the_form(rng):
    for _ in range(10):
        params = _random_params(rng)
        theta = float(rng.uniform(0, 2 * np.pi))
        printed, branch = printed_circle_form(params, theta)
        assert branch == "generic"
        assert np.max(np.abs(printed.coeffs - 2.0 * circle_form(params, theta).coeffs)) < 1e-9


def test_printed_minus_degenerate_branch_sign_defect(rng):
    # the display carries a sign error on its t2 cross term: exactly the
    # (0,4) and (1,5) coefficients disagree, by twice their magnitude
    r, x, u = (float(v) for v in unit3(rng))
    params = PolarPairParams(r, x, u, -1.0, 0.0, 0.0)
    theta = 0.9
    printed, _ = printed_circle_form(params, theta)
    actual = circle_form(params, theta)
    diff = np.abs(printed.coeffs - actual.coeffs)
    bad = {k for k, d in enumerate(diff) if d > 1e-9}
    from twistorz.exterior import PAIR_INDEX

    expected_bad = {PAIR_INDEX[(0, 4)], PAIR_INDEX[(1, 5)]}
    t2 = abs(np.sin(theta)) * np.sqrt((r + 1.0) / 2.0)
    if t2 > 1e-9:
        assert bad == expected_bad
    else:
        assert bad == set()


def _seam_residual(theta, fixed, plus_side):
    etas = [1e-2 / 2**k for k in range(4)]

    def sample(eta):
        r = -1.0 + eta * eta
        mag = np.sqrt(max(0.0, 1.0 - r * r))
        if plus_side:
            params = PolarPairParams(r, 0.0, -mag, *fixed)
        else:
            params = PolarPairParams(*fixed, r, 0.0, mag)
        return circle_form(params, theta).coeffs

    vals = [sample(e) for e in etas]
    n = len(etas)
    for m in range(1, n):
        vals = [
            (etas[i] * vals[i + 1] - etas[i + m] * vals[i]) / (etas[i] - etas[i + m])
            for i in range(n - m)
        ]
    if plus_side:
        target_params = PolarPairParams(-1.0, 0.0, 0.0, *fixed)
    else:
        target_params = PolarPairParams(*fixed, -1.0, 0.0, 0.0)
    target = circle_form(target_params, theta).coeffs
    return float(np.max(np.abs(vals[0] - target)))


def test_branch_seam_numerical_limit(rng):
    # numerical limit of the generic branch onto each degenerate pole,
    # sampled from |r + 1| = 1e-4 inward along the phase-aligned path
    for _ in range(3):
        fixed = tuple(float(v) for v in unit3(rng))
        theta = float(rng.uniform(0, 2 * np.pi))
        assert _seam_residual(theta, fixed, plus_side=True) < 1e-6
        assert _seam_residual(theta, fixed, plus_side=False) < 1e-6


# --- the ANK decomposition ----------------------------------------------------


def test_ank_circle_grid_small(rng):
    for r in np.linspace(-0.9, 0.9, 5):
        scale = np.sqrt(1.0 - r * r)
        for phi in np.linspace(0, 2 * np.pi, 4, endpoint=False):
            x, u = scale * np.cos(phi), scale * np.sin(phi)
            for theta in np.linspace(0, 2 * np.pi, 3, endpoint=False):
                acs = ank_circle_acs(float(r), float(x), float(u), float(theta))
                b = blocks(acs)
                assert max(np.linalg.norm(b.A), np.linalg.norm(b.C)) < 1e-9


def test_ank_circle_degenerate_corners():
    for r in (1.0, -1.0):
        acs = ank_circle_acs(r, 0.0, 0.0, 0.3)
        assert is_ank(acs)


def test_ank_circle_rejects_off_sphere():
    with pytest.raises(ParamDomainError):
        ank_circle_acs(1.0, 1.0, 0.0, 0.0)


def test_ank_reference_point_on_circle():
    # the reference swap structure itself is reproduced by circle parameters
    r, x, u, theta = invert_ank_circle(ank_reference_acs())
    point = circle_point(ank_circle_params(r, x, u), theta)
    assert point.projective_distance(acs_to_cp3(ank_reference_acs())) < 1e-9


def test_ank_inversion_round_trip(rng):
    worst = 0.0
    for _ in range(100):
        b = random_rotation3(rng)
        z3 = np.zeros((3, 3))
        acs = ACS(np.block([[z3, b], [-b.T, z3]]))
        r, x, u, theta = invert_ank_circle(acs)
        assert abs(r * r + x * x + u * u - 1.0) < 1e-9
        point = circle_point(ank_circle_params(r, x, u), theta)
        worst = max(worst, acs_to_cp3(acs).projective_distance(point))
    # the chart round trip misses by rounding only (4.2e-16 here)
    assert worst < 1e-12


def test_polar_members_invert_to_circles(rng):
    worst = 0.0
    for _ in range(100):
        point = sample_polar_point(rng)
        w = fundamental_form(cp3_to_acs(point))
        assert polar_contains(SIGMA56, w)
        params, theta = invert_circle(point)
        worst = max(worst, circle_point(params, theta).projective_distance(point))
    # the Hopf inverse and the chart miss by rounding only (2.7e-16 here)
    assert worst < 1e-12


@pytest.mark.parametrize(
    "coords, gap",
    [
        ([1, 0, 0, 0], "1.000e+00"),
        ([0, 0, 0, 1j], "1.000e+00"),
        ([0, 1, 1, 0], "-1.000e+00"),
        ([1, 1e-3, 0, 0], "1.000e+00"),
        ([1, 0.5, 0.5, 0], "3.333e-01"),
    ],
)
def test_inversion_rejects_points_off_the_polar_set(coords, gap):
    # a pair without mass used to give NaN parameters with a RuntimeWarning;
    # unequal masses on both pairs used to come back missing the point by
    # 0.71 ([1, 1e-3, 0, 0]) and 0.17 ([1, 0.5, 0.5, 0])
    message = f"point is not polar: mass gap {gap} between coordinates {{0, 3}} and {{1, 2}}"
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        invert_circle(CP3Point(np.array(coords, dtype=complex)))


def test_inversion_names_the_non_polar_member_of_a_stack(rng):
    coords = np.concatenate([sample_polar_point(rng, (3,)).coords, [[0, 1, 0, 0]]])
    with pytest.raises(ValueError, match=r"mass gap -1.000e\+00 between coordinates \{0, 3\} and \{1, 2\} at member 3$"):
        invert_circle(CP3Point(coords))


@pytest.mark.parametrize("scale", [1e-300, 1e300])
def test_bivector_route_and_inversion_are_scale_invariant(rng, scale):
    for _ in range(10):
        point = sample_polar_point(rng)
        big = CP3Point(scale * point.coords)
        assert np.max(np.abs(form_from_bivectors(big).coeffs - form_from_bivectors(point).coeffs)) <= 1e-14
        params, theta = invert_circle(point)
        params_big, theta_big = invert_circle(big)
        assert np.allclose(
            [*vars(params_big).values(), theta_big], [*vars(params).values(), theta], rtol=0, atol=1e-12
        )


@pytest.mark.parametrize("eps", [1e-3, 1e-5, 1e-7])
def test_poles_near_the_degenerate_pole_have_unit_norm(eps):
    # r^2 + x^2 + u^2 rounds off 1 for some angles; a pole written as
    # [s, (-u + i x) / (2 s)] turns that rounding into a norm error of order
    # 1e-16 / (r + 1)
    for t in np.linspace(0.1, 6.0, 25):
        r = -1.0 + eps
        x, u = np.sqrt(1.0 - r * r) * np.cos(t), np.sqrt(1.0 - r * r) * np.sin(t)
        for point in polar_pair_points(PolarPairParams(r, x, u, r, x, u)):
            assert abs(np.linalg.norm(point.coords) - 1.0) <= 4e-16


def test_ank_point_near_a_pole_meets_the_basis_identity():
    # draw of `verify --seed 745803094` (nk_basis_identity) with r = -0.999995;
    # with a pole 3.7e-12 off unit norm the identity residual was 1.9e-12
    acs = ank_circle_acs(-0.999995152807884, -0.0030648158060682935, -0.0005488759529387771, 2.6389773343161007)
    d = _nabla_tensor(acs)
    assert np.max(np.abs(d[range(6), range(6)])) < 1e-13


#: how far the round trip may miss next to a degenerate pole: rounding only
#: (a band that snapped |r + 1| < 1e-8 to the pole once let it miss by 7.1e-5)
IN_BAND_BOUND = 1e-14


@pytest.mark.parametrize("eps", [0.0, 5e-324, 1e-300, 1e-200, 1e-100, 1e-20, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4])
@pytest.mark.parametrize("order", [(0, 1, 2, 3), (1, 0, 3, 2)])
@pytest.mark.parametrize("phases", [(0.0, 0.0, 0.0, 0.0), (0.4, 2.2, -1.3, 0.9)])
def test_inversion_near_a_degenerate_pole(eps, order, phases):
    # z1 = eps puts the minus pole's Hopf r + 1 at about 4 eps^2, which
    # underflows for eps below 1e-154 (an r + 1 formed from x^2 + u^2 unscaled
    # then took the pole for the degenerate one, and the round trip missed by
    # 1.0); the order (1, 0, 3, 2) moves eps to z0, the plus side
    coords = np.array([0.6, eps, np.sqrt(0.52 - eps * eps), 0.4j])[list(order)]
    point = CP3Point(coords * np.exp(1j * np.array(phases)))
    params, theta = invert_circle(point)
    assert np.all(np.isfinite([*vars(params).values(), theta]))
    assert circle_point(params, theta).projective_distance(point) < IN_BAND_BOUND


def _near_pole_point(log_small, plus_side, t, phases):
    """Polar point whose z0 (plus side) or z1 (minus side) has modulus 10**log_small."""
    small = 10.0**log_small
    pair = [small, np.sqrt(0.5 - small * small)]
    other = [np.cos(t) / np.sqrt(2.0), np.sin(t) / np.sqrt(2.0)]
    coords = [pair[0], other[0], other[1], pair[1]] if plus_side else [other[0], pair[0], pair[1], other[1]]
    return np.array(coords) * np.exp(1j * np.array(phases))


@settings(max_examples=300)
@given(
    log_small=st.floats(-323.0, -2.0),
    plus_side=st.booleans(),
    t=st.floats(0.0, 1.4),
    phases=st.lists(st.floats(0.0, 2 * np.pi), min_size=4, max_size=4),
)
def test_inversion_round_trip_across_the_band(log_small, plus_side, t, phases):
    # the chart forms r + 1 without cancellation and decides degeneracy by exact
    # zero, so the round trip is exact to rounding at every distance from the
    # pole (it missed by 5e-13 when r + 1 cancelled, by up to 7.1e-5 when
    # |r + 1| < 1e-8 snapped to the pole)
    point = CP3Point(_near_pole_point(log_small, plus_side, t, phases))
    params, theta = invert_circle(point)
    assert circle_point(params, theta).projective_distance(point) < 1e-14


def _pole_near_degenerate(eps, phi):
    """Unit (r, x, u) with r + 1 = eps and (x, u) at angle phi: sqrt(1 - r^2) = sqrt(eps (2 - eps))."""
    mag = np.sqrt(eps * (2.0 - eps))
    return -1.0 + eps, mag * np.cos(phi), mag * np.sin(phi)


def _chart_pole(r_plus_one, x, u, plus):
    """The chart's unit pole [r + 1, -u + i x] (plus, on coordinates 0 and 3) or
    [r + 1, u + i x] (minus, on 1 and 2), from r + 1 as given, without snapping."""
    c = np.zeros(4, dtype=complex)
    lead, tail = (0, 3) if plus else (1, 2)
    c[lead], c[tail] = r_plus_one, (-u if plus else u) + 1j * x
    # scaled to a largest modulus of 1 first, part by part: |c|^2 underflows
    # for a tiny tail, and 1 / |c| overflows for a subnormal one
    m = np.max(np.abs(c))
    c = c.real / m + 1j * (c.imag / m)
    return c / np.linalg.norm(c)


@pytest.mark.parametrize("eps, mag", [(eps, np.sqrt(eps * (2.0 - eps))) for eps in (1e-9, 1e-12, 1e-14)]
                         + [(0.0, mag) for mag in (1e-160, 1e-200, 1e-300, 5e-324)])
@pytest.mark.parametrize("plus_side", [True, False])
def test_circle_point_near_a_pole_keeps_the_poles_phase(eps, mag, plus_side):
    # the pole (-1 + eps, x, u) with |(x, u)| = mag and x != 0 is not the
    # degenerate pole: the phase of its tail enters the circle point (snapping
    # |r + 1| < 1e-8 to the degenerate pole dropped it, and the point missed by
    # up to 0.97); for mag below 1e-154 its r + 1 = mag^2 / 2 underflows, and an
    # unscaled x^2 + u^2 dropped the phase the same way
    other, theta = (0.2, -0.6, np.sqrt(0.6)), 1.1
    for phi in np.linspace(0.3, 6.0, 7):
        near = (-1.0 + eps, mag * np.cos(phi), mag * np.sin(phi))
        params = PolarPairParams(*near, *other) if plus_side else PolarPairParams(*other, *near)
        plus = _chart_pole(eps if plus_side else 1.2, *(near if plus_side else other)[1:], plus=True)
        minus = _chart_pole(1.2 if plus_side else eps, *(other if plus_side else near)[1:], plus=False)
        expected = CP3Point((minus + np.exp(1j * theta) * plus) / np.sqrt(2.0))
        assert circle_point(params, theta).projective_distance(expected) <= 1e-14


@pytest.mark.parametrize("eps", [1e-4, 1e-6, 1e-8, 1e-10, 1e-12, 1e-14, 1e-20, 1e-50, 1e-100, 1e-200, 1e-300])
def test_closed_form_agrees_near_a_pole_at_every_scale(eps):
    # the generic branch is a formula in r + 1, formed as the chart forms it, so
    # it holds at every normal r + 1 (with r + 1 formed by cancellation it
    # missed by 3.8e-9 at 1e-8, and a degenerate branch took every |r + 1| < 1e-8)
    other = (0.2, -0.6, np.sqrt(0.6))
    for phi, theta in zip(np.linspace(0.3, 6.0, 5), np.linspace(0.5, 5.5, 5)):
        near_plus, near_minus = _pole_near_degenerate(eps, phi), _pole_near_degenerate(eps, phi + 2.0)
        for params in (PolarPairParams(*near_plus, *other), PolarPairParams(*other, *near_minus),
                       PolarPairParams(*near_plus, *near_minus)):
            closed, branch = circle_closed_form(params, theta)
            assert branch == "generic"
            assert np.max(np.abs(closed.coeffs - circle_form(params, theta).coeffs)) <= 1e-12


def test_polar_containment_near_a_pole_is_exact_to_rounding():
    # report seed 390 draws a polar point whose pole sits just outside the
    # degeneracy band, where forming r + 1 by cancellation missed by 3.7e-14
    assert check_polar_containment(390).residual < 1e-14
