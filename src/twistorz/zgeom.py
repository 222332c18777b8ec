"""Projective-geometric subsets of Z: edges, polar sets, equatorial circles
and the ANK circle decomposition.

Every parametrized family here is computed CONSTRUCTIVELY through the
projective correspondence (point -> structure -> fundamental form).
Closed-form coefficient expressions are provided separately so tests can
compare the two routes; where the literature displays of those formulas
carry typos, the corrected versions live in the ``*_closed_form``
functions and the literal transcriptions in ``printed_circle_form``.

Pole parametrization on the two distinguished edges (unit (r, x, u)):

    edge through vertices 0 and 3:
        w = e5^e6 + r (e1^e2 + e3^e4) + x (e1^e3 - e2^e4) + u (e1^e4 + e2^e3)
        point [sqrt((r+1)/2), 0, 0, (-u + i x) / sqrt(2 (r+1))]
    edge through vertices 1 and 2:
        w = -e5^e6 + r (e1^e2 - e3^e4) + x (e1^e3 + e2^e4) + u (e1^e4 - e2^e3)
        point [0, sqrt((r+1)/2), (u + i x) / sqrt(2 (r+1)), 0]

with the degenerate representatives [0,0,0,1] and [0,0,1,0] at r = -1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .acs import ACS, acs_from_form, fundamental_form
from .cp3 import CP3Point, acs_to_cp3, cp3_to_acs, identify, wedge4
from .exceptions import (
    NotDecomposableError,
    NotInZError,
    NotUnitError,
    ParamDomainError,
    ZeroCombinationError,
    ZeroFormError,
)
from .exterior import TwoForm, decomposability_residual

#: |r + 1| below this selects the degenerate pole representative
DEGENERATE_EPS = 1e-8

_UNIT_TOL = 1e-9


@dataclass(frozen=True)
class Edge:
    """Projective line through two distinct points."""

    z: CP3Point
    u: CP3Point

    def __post_init__(self):
        if self.z.projective_residual(self.u) < 1e-12:
            raise ValueError("edge endpoints must be projectively distinct")


def edge_point(edge: Edge, alpha: complex, beta: complex) -> CP3Point:
    """alpha z + beta u with unit-norm endpoint representatives."""
    if abs(alpha) + abs(beta) == 0.0:
        raise ZeroCombinationError("alpha and beta cannot both vanish")
    z = edge.z.scaled()
    u = edge.u.scaled()
    return CP3Point(alpha * z / np.linalg.norm(z) + beta * u / np.linalg.norm(u))


# ---------------------------------------------------------------------------
# edge through vertices 0 and 1


def edge01_form(s: float, c1: float, c2: float) -> TwoForm:
    """Constructive fundamental form of the point [s, c1 + i c2, 0, 0]."""
    _check_unit3(s, c1, c2)
    return fundamental_form(cp3_to_acs(np.array([s, c1 + 1j * c2, 0.0, 0.0])))


def edge01_closed_form(s: float, c1: float, c2: float) -> TwoForm:
    """Closed form with r = 2 s^2 - 1, u = 2 s c2, x = -2 s c1:

        e1^e2 + r (e3^e4 + e5^e6) + u (e3^e5 - e4^e6) + x (e3^e6 + e4^e5)
    """
    _check_unit3(s, c1, c2)
    r = 2.0 * s * s - 1.0
    u = 2.0 * s * c2
    x = -2.0 * s * c1
    return TwoForm.from_pairs(
        {
            (0, 1): 1.0,
            (2, 3): r,
            (4, 5): r,
            (2, 4): u,
            (3, 5): -u,
            (2, 5): x,
            (3, 4): x,
        }
    )


def _check_unit3(*vals: float, tol: float = _UNIT_TOL) -> None:
    s = sum(v * v for v in vals)
    if abs(s - 1.0) > tol:
        raise ParamDomainError(f"parameters must lie on the unit sphere (|.|^2 = {s})")


# ---------------------------------------------------------------------------
# generalized edges and polar sets


def generalized_edge_contains(sigma: TwoForm, omega: TwoForm, tol: float = _UNIT_TOL) -> bool:
    """omega in Z and omega - sigma supported on the plane complement of sigma.

    sigma must be a unit decomposable 2-form e ^ f; its plane is recovered
    as the column space of the coefficient matrix.
    """
    res = decomposability_residual(sigma)
    if res > tol:
        raise NotDecomposableError(f"sigma ^ sigma != 0 (residual {res:.3e})")
    nrm = sigma.norm()
    if abs(nrm - 1.0) > tol:
        raise NotUnitError(f"|sigma| = {nrm} != 1")
    try:
        acs_from_form(omega)
    except NotInZError:
        return False
    sm = sigma.matrix()
    # rank-2 column space of the antisymmetric coefficient matrix
    _, sing, vh = np.linalg.svd(sm)
    plane = vh[:2].T
    tail = (omega - sigma).matrix()
    return bool(np.max(np.abs(tail @ plane)) <= tol)


def polar_contains(sigma: TwoForm, omega: TwoForm, tol: float = _UNIT_TOL) -> bool:
    """omega in Z and orthogonal to sigma in the form inner product."""
    if sigma.norm() == 0.0:
        raise ZeroFormError("polar set of the zero form is undefined")
    try:
        acs_from_form(omega)
    except NotInZError:
        return False
    return bool(abs(sigma.inner(omega)) <= tol)


# ---------------------------------------------------------------------------
# poles and equatorial circles


@dataclass(frozen=True)
class PolarPairParams:
    """Unit parameter triples for a pole pair (plus on edge 03, minus on 12)."""

    r_plus: float
    x_plus: float
    u_plus: float
    r_minus: float
    x_minus: float
    u_minus: float

    def __post_init__(self):
        _check_unit3(self.r_plus, self.x_plus, self.u_plus)
        _check_unit3(self.r_minus, self.x_minus, self.u_minus)


def _pole_coords(r: float, x: float, u: float, plus: bool) -> np.ndarray:
    if abs(r + 1.0) < DEGENERATE_EPS:
        return (
            np.array([0, 0, 0, 1], dtype=complex)
            if plus
            else np.array([0, 0, 1, 0], dtype=complex)
        )
    # [r + 1, (-u + i x)] scaled to unit norm by its own norm: the form
    # [s, (-u + i x) / (2 s)] with s = sqrt((r + 1) / 2) has unit norm only
    # when r^2 + x^2 + u^2 = 1 exactly, and misses it by the rounding of that
    # sum over 2 (r + 1), which put ANK points near a pole 1e-12 off the set
    norm = np.sqrt((r + 1.0) ** 2 + x * x + u * u)
    w = ((-u if plus else u) + 1j * x) / norm
    return np.array([(r + 1.0) / norm, 0.0, 0.0, w]) if plus else np.array([0.0, (r + 1.0) / norm, w, 0.0])


def polar_pair_points(p: PolarPairParams) -> tuple[CP3Point, CP3Point]:
    """Unit-norm representatives of the pole pair (p_plus, p_minus)."""
    return (
        CP3Point(_pole_coords(p.r_plus, p.x_plus, p.u_plus, plus=True)),
        CP3Point(_pole_coords(p.r_minus, p.x_minus, p.u_minus, plus=False)),
    )


def pole_plus_closed_form(r: float, x: float, u: float) -> TwoForm:
    """Corrected closed form of a pole on the edge through vertices 0 and 3."""
    _check_unit3(r, x, u)
    return TwoForm.from_pairs(
        {(4, 5): 1.0, (0, 1): r, (2, 3): r, (0, 2): x, (1, 3): -x, (0, 3): u, (1, 2): u}
    )


def pole_minus_closed_form(r: float, x: float, u: float) -> TwoForm:
    """Corrected closed form of a pole on the edge through vertices 1 and 2."""
    _check_unit3(r, x, u)
    return TwoForm.from_pairs(
        {(4, 5): -1.0, (0, 1): r, (2, 3): -r, (0, 2): x, (1, 3): x, (0, 3): u, (1, 2): -u}
    )


def circle_point(p: PolarPairParams, theta: float) -> CP3Point:
    """Equatorial point (p_minus + e^{i theta} p_plus) / sqrt(2)."""
    plus, minus = polar_pair_points(p)
    phase = np.cos(theta) + 1j * np.sin(theta)
    return CP3Point((minus.coords + phase * plus.coords) / np.sqrt(2.0))


def circle_form(p: PolarPairParams, theta: float) -> TwoForm:
    """Constructive fundamental form of the equatorial circle point."""
    return fundamental_form(cp3_to_acs(circle_point(p, theta)))


def form_from_bivectors(point: CP3Point) -> TwoForm:
    """Fundamental form assembled directly from the bivector family of a point.

    Independent of the precomputed linear map in :func:`cp3_to_acs`: maps
    the four bivectors u ^ v^a of the unit representative through the
    identification and wedges real against imaginary parts, one term at a
    time.
    """
    u = point.scaled()
    u = u / np.linalg.norm(u)
    basis4 = np.eye(4, dtype=complex)
    om = np.zeros((6, 6))
    for a in range(4):
        w = identify(wedge4(u, basis4[a]))
        om += np.outer(w.real, w.imag) - np.outer(w.imag, w.real)
    return TwoForm.from_matrix(4.0 * om)


# --- closed-form circle branches (typo-corrected) --------------------------


def circle_closed_form(p: PolarPairParams, theta: float) -> tuple[TwoForm, str]:
    """Coefficient formulas for the circle form, per pole-degeneracy branch.

    Returns the form and the branch label among ``generic``,
    ``both_degenerate``, ``minus_degenerate``, ``plus_degenerate``.
    Agrees with :func:`circle_form` on all branches.
    """
    t1, t2 = float(np.cos(theta)), float(np.sin(theta))
    deg_p = abs(p.r_plus + 1.0) < DEGENERATE_EPS
    deg_m = abs(p.r_minus + 1.0) < DEGENERATE_EPS
    if deg_p and deg_m:
        return _branch_both_degenerate(t1, t2), "both_degenerate"
    if deg_m:
        return _branch_minus_degenerate(p.r_plus, p.x_plus, p.u_plus, t1, t2), "minus_degenerate"
    if deg_p:
        return _branch_plus_degenerate(p.r_minus, p.x_minus, p.u_minus, t1, t2), "plus_degenerate"
    return _branch_generic(p, t1, t2), "generic"


def _branch_both_degenerate(t1: float, t2: float) -> TwoForm:
    return TwoForm.from_pairs(
        {(0, 1): -1.0, (2, 4): t2, (3, 5): t2, (2, 5): t1, (3, 4): -t1}
    )


def _branch_generic(p: PolarPairParams, t1: float, t2: float) -> TwoForm:
    rp, xp, up = p.r_plus, p.x_plus, p.u_plus
    rm, xm, um = p.r_minus, p.x_minus, p.u_minus
    q = np.sqrt((rm + 1.0) * (rp + 1.0))
    return 0.5 * TwoForm.from_pairs(
        {
            (0, 1): rp + rm,
            (2, 3): rp - rm,
            (0, 2): xp + xm,
            (3, 1): xp - xm,
            (0, 3): up + um,
            (1, 2): up - um,
            (0, 4): ((xp * t1 - up * t2) * (rm + 1) + (um * t2 - xm * t1) * (rp + 1)) / q,
            (0, 5): (-(xp * t2 + up * t1) * (rm + 1) + (um * t1 + xm * t2) * (rp + 1)) / q,
            (1, 4): ((xp * t2 + up * t1) * (rm + 1) + (um * t1 + xm * t2) * (rp + 1)) / q,
            (1, 5): ((xp * t1 - up * t2) * (rm + 1) - (um * t2 - xm * t1) * (rp + 1)) / q,
            (2, 4): (-t2 * (rp + 1) * (rm + 1) + um * (xp * t1 - up * t2) + xm * (up * t1 + xp * t2)) / q,
            (2, 5): (-t1 * (rp + 1) * (rm + 1) - um * (xp * t2 + up * t1) + xm * (xp * t1 - up * t2)) / q,
            (3, 4): (-t1 * (rp + 1) * (rm + 1) + um * (xp * t2 + up * t1) - xm * (xp * t1 - up * t2)) / q,
            (3, 5): (t2 * (rp + 1) * (rm + 1) + um * (xp * t1 - up * t2) + xm * (up * t1 + xp * t2)) / q,
        }
    )


def _branch_minus_degenerate(r: float, x: float, u: float, t1: float, t2: float) -> TwoForm:
    # minus pole at its degenerate representative; the t2 cross term sign
    # differs from the literature display (corrected here)
    s = np.sqrt((r + 1.0) / 2.0)
    d = np.sqrt(2.0 * (r + 1.0))
    return TwoForm.from_pairs(
        {
            (0, 1): (r - 1.0) / 2.0,
            (0, 5): t1 * s,
            (1, 4): t1 * s,
            (0, 3): u / 2.0,
            (1, 2): u / 2.0,
            (0, 2): x / 2.0,
            (1, 3): -x / 2.0,
            (0, 4): t2 * s,
            (1, 5): -t2 * s,
            (2, 3): (r + 1.0) / 2.0,
            (3, 5): (x * t1 - u * t2) / d,
            (2, 4): (x * t1 - u * t2) / d,
            (3, 4): (u * t1 + x * t2) / d,
            (2, 5): -(u * t1 + x * t2) / d,
        }
    )


def _branch_plus_degenerate(r: float, x: float, u: float, t1: float, t2: float) -> TwoForm:
    s = np.sqrt((r + 1.0) / 2.0)
    d = np.sqrt(2.0 * (r + 1.0))
    return TwoForm.from_pairs(
        {
            (0, 1): (r - 1.0) / 2.0,
            (0, 3): u / 2.0,
            (1, 2): -u / 2.0,
            (0, 2): x / 2.0,
            (1, 3): x / 2.0,
            (0, 5): t1 * s,
            (1, 4): -t1 * s,
            (0, 4): t2 * s,
            (1, 5): t2 * s,
            (2, 5): (u * t1 + x * t2) / d,
            (3, 4): -(u * t1 + x * t2) / d,
            (2, 4): (u * t2 - x * t1) / d,
            (3, 5): (u * t2 - x * t1) / d,
            (2, 3): -(1.0 + r) / 2.0,
        }
    )


def printed_circle_form(p: PolarPairParams, theta: float) -> tuple[TwoForm, str]:
    """Literal transcription of the displayed branch formulas.

    The ``generic`` display is 2x the fundamental form; the degenerate
    displays are 1x; the ``minus_degenerate`` display carries a sign error
    on its t2 cross term.  Returned unscaled and uncorrected so callers
    can report per-coefficient agreement.
    """
    t1, t2 = float(np.cos(theta)), float(np.sin(theta))
    deg_p = abs(p.r_plus + 1.0) < DEGENERATE_EPS
    deg_m = abs(p.r_minus + 1.0) < DEGENERATE_EPS
    if deg_p and deg_m:
        return _branch_both_degenerate(t1, t2), "both_degenerate"
    if deg_m:
        corrected = _branch_minus_degenerate(p.r_plus, p.x_plus, p.u_plus, t1, t2)
        s = np.sqrt((p.r_plus + 1.0) / 2.0)
        flip = TwoForm.from_pairs({(0, 4): -2.0 * t2 * s, (1, 5): 2.0 * t2 * s})
        return corrected + flip, "minus_degenerate"
    if deg_p:
        return _branch_plus_degenerate(p.r_minus, p.x_minus, p.u_minus, t1, t2), "plus_degenerate"
    return 2.0 * _branch_generic(p, t1, t2), "generic"


# ---------------------------------------------------------------------------
# the ANK circle decomposition


def ank_circle_params(r: float, x: float, u: float) -> PolarPairParams:
    """Pole constraint of the maximal set: opposite r and x, equal u."""
    _check_unit3(r, x, u)
    return PolarPairParams(r, x, u, -r, -x, u)


def ank_circle_acs(r: float, x: float, u: float, theta: float) -> ACS:
    """Member of the maximal (ANK) set for unit (r, x, u) and angle theta."""
    return cp3_to_acs(circle_point(ank_circle_params(r, x, u), theta))


def invert_circle(point: CP3Point) -> tuple[PolarPairParams, float]:
    """Pole parameters and angle reproducing a point of the polar set.

    Valid for points with equal mass on coordinates {0, 3} and {1, 2}
    (equivalently, fundamental form orthogonal to e5^e6).
    """
    z = point.scaled()
    z0, z1, z2, z3 = z / np.linalg.norm(z)

    if abs(z1) < 1e-10:
        rm, xm, um = -1.0, 0.0, 0.0
    else:
        zeta = z2 / z1  # (u + i x) / (r + 1)
        m2 = abs(zeta) ** 2
        rm = (1.0 - m2) / (1.0 + m2)
        um = float(zeta.real * (1.0 + rm))
        xm = float(zeta.imag * (1.0 + rm))
    if abs(z0) < 1e-10:
        rp, xp, up = -1.0, 0.0, 0.0
    else:
        zeta = z3 / z0  # (-u + i x) / (r + 1)
        m2 = abs(zeta) ** 2
        rp = (1.0 - m2) / (1.0 + m2)
        up = float(-zeta.real * (1.0 + rp))
        xp = float(zeta.imag * (1.0 + rp))

    params = PolarPairParams(rp, xp, up, rm, xm, um)
    plus, minus = polar_pair_points(params)
    alpha = z1 / minus.coords[1] if abs(z1) >= 1e-10 else z2 / minus.coords[2]
    beta = z0 / plus.coords[0] if abs(z0) >= 1e-10 else z3 / plus.coords[3]
    theta = float(np.angle(beta / alpha))
    return params, theta


def invert_ank_circle(acs: ACS) -> tuple[float, float, float, float]:
    """(r, x, u, theta) reproducing an ANK structure through the circle map."""
    params, theta = invert_circle(acs_to_cp3(acs))
    return params.r_plus, params.x_plus, params.u_plus, theta


def _unit3(rng: np.random.Generator) -> tuple[float, float, float]:
    """Uniform point of the unit 2-sphere: one normal draw of size 3."""
    v = rng.standard_normal(3)
    v /= np.linalg.norm(v)
    return float(v[0]), float(v[1]), float(v[2])


def _angle(rng: np.random.Generator) -> float:
    """Uniform angle in [0, 2 pi): one uniform draw."""
    return float(rng.uniform(0.0, 2.0 * np.pi))


def _random_ank(rng: np.random.Generator) -> ACS:
    """Random member of the ANK set: a unit pole triple, then an angle."""
    return ank_circle_acs(*_unit3(rng), _angle(rng))


def sample_polar_point(rng: np.random.Generator) -> CP3Point:
    """Random point with equal mass on coordinate pairs {0,3} and {1,2}.

    Such points are exactly the members of the polar set of e5^e6 (the
    coefficient of e5^e6 in the fundamental form equals the mass
    difference of the two pairs).
    """
    z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    n03 = np.sqrt(abs(z[0]) ** 2 + abs(z[3]) ** 2)
    n12 = np.sqrt(abs(z[1]) ** 2 + abs(z[2]) ** 2)
    z[0] /= n03 * np.sqrt(2.0)
    z[3] /= n03 * np.sqrt(2.0)
    z[1] /= n12 * np.sqrt(2.0)
    z[2] /= n12 * np.sqrt(2.0)
    return CP3Point(z)
