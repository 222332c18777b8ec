"""Projective-geometric subsets of Z: tetrahedron edges, polar sets,
equatorial circles and the ANK circle decomposition.

Every parametrized family here is computed CONSTRUCTIVELY through the
projective correspondence (point -> structure -> fundamental form).
Closed-form coefficient expressions are provided separately so tests can
compare the two routes; where the literature displays of those formulas
carry typos, the corrected versions live in the ``*_closed_form``
functions and the literal transcriptions in ``printed_circle_form``.
Each closed form is stated once, as a private table of pair coefficients
{(i, j): value} that only adds, subtracts, multiplies and divides its
arguments; any root it needs is passed in.  So the tables are ring-generic:
the public functions check their parameters and build a :class:`TwoForm`
from them on floats, and the tests run the same tables on exact
polynomial elements.  The printed displays are derived from the corrected
tables: twice the generic one, and the minus-degenerate one with the sign
of its e1^e5 and e2^e6 entries flipped.

Pole parametrization on the two distinguished edges (unit (r, x, u)):

    edge through vertices 0 and 3:
        w = e5^e6 + r (e1^e2 + e3^e4) + x (e1^e3 - e2^e4) + u (e1^e4 + e2^e3)
        point [sqrt((r+1)/2), 0, 0, (-u + i x) / sqrt(2 (r+1))]
    edge through vertices 1 and 2:
        w = -e5^e6 + r (e1^e2 - e3^e4) + x (e1^e3 + e2^e4) + u (e1^e4 - e2^e3)
        point [0, sqrt((r+1)/2), (u + i x) / sqrt(2 (r+1)), 0]

with the degenerate representatives [0,0,0,1] and [0,0,1,0] at r = -1.

One exact rule decides pole degeneracy in the chart, its closed-form
branches and its inverse alike: a pole is degenerate only at (-1, 0, 0).
The chart forms r + 1 = (x^2 + u^2) / (1 - r) for r < 0, without
cancellation and, on (x, u) scaled by a power of two, without underflow,
so it is exact to rounding at every scale.  The inverse reads a pole off
its coordinate pair (a, b) = (z0, z3) or (z1, z2) by the Hopf map,
r = (|a|^2 - |b|^2) / (|a|^2 + |b|^2), unsnapped, so a round trip misses
by rounding only.  The closed-form branches are formulas in r + 1 formed
as in the chart; they hold wherever r + 1 is 0 or a normal float.

The parametrized families take parameter arrays as well as floats: a
:class:`PolarPairParams` with array fields, angles and unit triples of one
shape give a stack of points, forms or structures of that shape, each
element computed as a single call computes it.  The closed-form branch is
chosen per element.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .acs import ACS, DEFAULT_TOL, fundamental_form
from .cp3 import CP3Point, _product, _unit, acs_to_cp3, cp3_to_acs, identify, wedge4
from .exceptions import ParamDomainError, at_member
from .exterior import TwoForm
from .kernels import _first_failure, _scalar

# ---------------------------------------------------------------------------
# edge through vertices 0 and 1


def edge01_form(s, c1, c2) -> TwoForm:
    """Constructive fundamental form of the point [s, c1 + i c2, 0, 0]."""
    _check_unit_sphere(s, c1, c2)
    s, c1, c2 = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (s, c1, c2)))
    coords = np.zeros(s.shape + (4,), dtype=complex)
    coords[..., 0] = s
    coords[..., 1] = c1 + 1j * c2
    return fundamental_form(cp3_to_acs(coords))


def edge01_closed_form(s, c1, c2) -> TwoForm:
    """Closed form with r = 2 s^2 - 1, u = 2 s c2, x = -2 s c1:

        e1^e2 + r (e3^e4 + e5^e6) + u (e3^e5 - e4^e6) + x (e3^e6 + e4^e5)
    """
    _check_unit_sphere(s, c1, c2)
    return TwoForm.from_pairs(_edge01_pairs(s, c1, c2))


def _edge01_pairs(s, c1, c2) -> dict:
    r = 2 * s * s - 1
    u = 2 * s * c2
    x = -2 * s * c1
    return {(0, 1): 1, (2, 3): r, (4, 5): r, (2, 4): u, (3, 5): -u, (2, 5): x, (3, 4): x}


def _check_unit_sphere(*vals) -> None:
    """Raise for the first element of (arrays of) triples off the unit sphere.

    A triple off the sphere by d gives closed forms off Z by about d, so the
    sphere is held to the tolerance at which structures validate; a
    non-finite triple is off it too.
    """
    s = sum(np.asarray(v, dtype=float) ** 2 for v in vals)
    failure = _first_failure(~(np.abs(s - 1.0) <= DEFAULT_TOL))
    if failure is not None:
        member = failure[1]
        message = f"parameters must lie on the unit sphere (|.|^2 = {s[member]})"
        raise ParamDomainError(at_member(message, member))


# ---------------------------------------------------------------------------
# poles and equatorial circles


@dataclass(frozen=True)
class PolarPairParams:
    """Unit parameter triples for a pole pair (plus on edge 03, minus on 12).

    The fields are floats, or arrays of one shape for a stack of pairs.
    """

    r_plus: float
    x_plus: float
    u_plus: float
    r_minus: float
    x_minus: float
    u_minus: float

    def __post_init__(self):
        _check_unit_sphere(self.r_plus, self.x_plus, self.u_plus)
        _check_unit_sphere(self.r_minus, self.x_minus, self.u_minus)


def _r_plus_one(r, x, u):
    """r + 1 of unit triples (r, x, u) without cancellation: (1 - r^2) / (1 - r) =
    (x^2 + u^2) / (1 - r) for r < 0, where the minimum keeps the unused branch
    from dividing by 0 at r = 1.  It is 0 at the degenerate pole."""
    return np.where(r < 0.0, (x * x + u * u) / (1.0 - np.minimum(r, 0.0)), r + 1.0)


def _pole_coords(r, x, u, plus: bool) -> np.ndarray:
    """Unit coordinates (..., 4) of the poles with parameters r, x, u (arrays or floats)."""
    r, x, u = (np.asarray(v, dtype=float) for v in (r, x, u))
    # for r < 0, [r + 1, (-u + i x)] scaled by the power of two 2^-e that
    # brings max(|x|, |u|) into [1/2, 1): it rounds nothing, and on the scaled
    # (x, u) the squares in r + 1 = (x^2 + u^2) / (1 - r) cannot underflow
    e = np.where(r < 0.0, np.frexp(np.maximum(np.abs(x), np.abs(u)))[1], 0)
    x, u = np.ldexp(x, -e), np.ldexp(u, -e)
    r_plus_one = np.ldexp(_r_plus_one(r, x, u), e)
    # scaled to unit norm by its own norm: the form [s, (-u + i x) / (2 s)]
    # with s = sqrt((r + 1) / 2) has unit norm only when r^2 + x^2 + u^2 = 1
    # exactly, and misses it by the rounding of that sum over 2 (r + 1), which
    # put ANK points near a pole 1e-12 off the set
    norm = np.sqrt(r_plus_one**2 + x * x + u * u)
    degenerate = norm == 0.0  # exactly where r < 0 and x = u = 0
    norm = np.where(degenerate, 1.0, norm)
    lead, tail = (0, 3) if plus else (1, 2)
    coords = np.zeros(np.broadcast_shapes(r.shape, x.shape, u.shape) + (4,), dtype=complex)
    coords[..., lead] = r_plus_one / norm
    coords[..., tail].real = (-u if plus else u) / norm
    coords[..., tail].imag = x / norm
    return np.where(degenerate[..., None], _DEGENERATE_POLES[plus], coords)


#: representatives of the plus and minus poles at r = -1
_DEGENERATE_POLES = {True: np.eye(4, dtype=complex)[3], False: np.eye(4, dtype=complex)[2]}


def polar_pair_points(p: PolarPairParams) -> tuple[CP3Point, CP3Point]:
    """Unit-norm representatives of the pole pair (p_plus, p_minus)."""
    return (
        CP3Point(_pole_coords(p.r_plus, p.x_plus, p.u_plus, plus=True)),
        CP3Point(_pole_coords(p.r_minus, p.x_minus, p.u_minus, plus=False)),
    )


def pole_plus_closed_form(r, x, u) -> TwoForm:
    """Corrected closed form of a pole on the edge through vertices 0 and 3."""
    _check_unit_sphere(r, x, u)
    return TwoForm.from_pairs(_pole_plus_pairs(r, x, u))


def pole_minus_closed_form(r, x, u) -> TwoForm:
    """Corrected closed form of a pole on the edge through vertices 1 and 2."""
    _check_unit_sphere(r, x, u)
    return TwoForm.from_pairs(_pole_minus_pairs(r, x, u))


def _pole_plus_pairs(r, x, u) -> dict:
    return {(4, 5): 1, (0, 1): r, (2, 3): r, (0, 2): x, (1, 3): -x, (0, 3): u, (1, 2): u}


def _pole_minus_pairs(r, x, u) -> dict:
    return {(4, 5): -1, (0, 1): r, (2, 3): -r, (0, 2): x, (1, 3): x, (0, 3): u, (1, 2): -u}


def circle_point(p: PolarPairParams, theta) -> CP3Point:
    """Equatorial point (p_minus + e^{i theta} p_plus) / sqrt(2)."""
    plus = _pole_coords(p.r_plus, p.x_plus, p.u_plus, plus=True)
    minus = _pole_coords(p.r_minus, p.x_minus, p.u_minus, plus=False)
    theta = np.asarray(theta, dtype=float)[..., None]
    phase = np.cos(theta) + 1j * np.sin(theta)
    return CP3Point((minus + _product(phase, plus)) / np.sqrt(2.0))


def circle_form(p: PolarPairParams, theta) -> TwoForm:
    """Constructive fundamental form of the equatorial circle point."""
    return fundamental_form(cp3_to_acs(circle_point(p, theta)))


_BASIS4 = np.eye(4, dtype=complex)


def form_from_bivectors(point: CP3Point) -> TwoForm:
    """Fundamental form assembled directly from the bivector family of a point.

    Independent of the precomputed linear map in :func:`cp3_to_acs`: maps
    the four bivectors u ^ v^a of the unit representative through the
    identification and wedges real against imaginary parts, one term at a
    time.
    """
    u = _unit(point.scaled())
    om = 0.0
    for a in range(4):
        w = identify(wedge4(u, _BASIS4[a]))
        re, im = w.real, w.imag
        om = om + (re[..., :, None] * im[..., None, :] - im[..., :, None] * re[..., None, :])
    return TwoForm.from_matrix(4.0 * om)


# --- closed-form circle branches (typo-corrected) --------------------------

#: branch labels, in the order in which the degeneracy tests pick them
_BRANCH_LABELS = np.array(["both_degenerate", "minus_degenerate", "plus_degenerate", "generic"])


def _by_branch(p: PolarPairParams, theta, branches) -> tuple[TwoForm, str]:
    """Each element's form from the table of its pole-degeneracy branch.

    ``branches`` holds, in the order of ``_BRANCH_LABELS``, one table per
    branch: a function of (rp, xp, up, rm, xm, um, t1, t2, p1, m1, q, dp, dm)
    to its pair coefficients {(i, j): value}, with p1 and m1 the poles' r + 1
    as the chart forms them and the roots passed in: q = sqrt(p1) sqrt(m1),
    dp = sqrt(2 p1), dm = sqrt(2 m1).  A table only adds, subtracts,
    multiplies and divides its arguments, so it runs on floats here and on
    exact ring elements in the tests.  A pole is degenerate where its r + 1
    is 0; each table is evaluated on the elements of its branch only.
    Returns the forms and the labels (a str for one element).
    """
    theta = np.asarray(theta, dtype=float)
    *params, t1, t2 = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in vars(p).values()),
                                          np.cos(theta), np.sin(theta))
    p1, m1 = _r_plus_one(*params[:3]), _r_plus_one(*params[3:])
    # q as a product of roots, which cannot underflow
    args = (*params, t1, t2, p1, m1, np.sqrt(m1) * np.sqrt(p1), np.sqrt(2.0 * p1), np.sqrt(2.0 * m1))
    deg_p, deg_m = p1 == 0.0, m1 == 0.0
    kind = np.where(deg_p & deg_m, 0, np.where(deg_m, 1, np.where(deg_p, 2, 3)))
    coeffs = np.empty(kind.shape + (15,))
    for k, branch in enumerate(branches):
        mask = kind == k
        if mask.any():
            coeffs[mask] = TwoForm.from_pairs(branch(*(v[mask] for v in args))).coeffs
    return TwoForm(coeffs), _scalar(_BRANCH_LABELS[kind])


def circle_closed_form(p: PolarPairParams, theta) -> tuple[TwoForm, str]:
    """Coefficient formulas for the circle form, per pole-degeneracy branch.

    Returns the form and the branch label among ``generic``,
    ``both_degenerate``, ``minus_degenerate``, ``plus_degenerate`` (an array
    of labels for a stack).  Agrees with :func:`circle_form` on all branches,
    to rounding wherever each pole's r + 1 is 0 or a normal float (at least
    ``np.finfo(float).tiny``); below that the formulas cannot be evaluated.
    """
    return _by_branch(p, theta, _CORRECTED_BRANCHES)


def _branch_both_degenerate(rp, xp, up, rm, xm, um, t1, t2, p1, m1, q, dp, dm) -> dict:
    return {(0, 1): -1, (2, 4): t2, (3, 5): t2, (2, 5): t1, (3, 4): -t1}


def _branch_generic(rp, xp, up, rm, xm, um, t1, t2, p1, m1, q, dp, dm) -> dict:
    return {
        (0, 1): (rp + rm) / 2,
        (2, 3): (rp - rm) / 2,
        (0, 2): (xp + xm) / 2,
        (1, 3): (xm - xp) / 2,
        (0, 3): (up + um) / 2,
        (1, 2): (up - um) / 2,
        (0, 4): ((xp * t1 - up * t2) * m1 + (um * t2 - xm * t1) * p1) / q / 2,
        (0, 5): (-(xp * t2 + up * t1) * m1 + (um * t1 + xm * t2) * p1) / q / 2,
        (1, 4): ((xp * t2 + up * t1) * m1 + (um * t1 + xm * t2) * p1) / q / 2,
        (1, 5): ((xp * t1 - up * t2) * m1 - (um * t2 - xm * t1) * p1) / q / 2,
        (2, 4): (-t2 * p1 * m1 + um * (xp * t1 - up * t2) + xm * (up * t1 + xp * t2)) / q / 2,
        (2, 5): (-t1 * p1 * m1 - um * (xp * t2 + up * t1) + xm * (xp * t1 - up * t2)) / q / 2,
        (3, 4): (-t1 * p1 * m1 + um * (xp * t2 + up * t1) - xm * (xp * t1 - up * t2)) / q / 2,
        (3, 5): (t2 * p1 * m1 + um * (xp * t1 - up * t2) + xm * (up * t1 + xp * t2)) / q / 2,
    }


def _branch_minus_degenerate(r, x, u, rm, xm, um, t1, t2, p1, m1, q, d, dm) -> dict:
    # minus pole at its degenerate representative; the t2 cross term sign
    # differs from the literature display (corrected here)
    return {
        (0, 1): (r - 1) / 2,
        (0, 5): t1 * d / 2,
        (1, 4): t1 * d / 2,
        (0, 3): u / 2,
        (1, 2): u / 2,
        (0, 2): x / 2,
        (1, 3): -x / 2,
        (0, 4): t2 * d / 2,
        (1, 5): -t2 * d / 2,
        (2, 3): p1 / 2,
        (3, 5): (x * t1 - u * t2) / d,
        (2, 4): (x * t1 - u * t2) / d,
        (3, 4): (u * t1 + x * t2) / d,
        (2, 5): -(u * t1 + x * t2) / d,
    }


def _branch_plus_degenerate(rp, xp, up, r, x, u, t1, t2, p1, m1, q, dp, d) -> dict:
    return {
        (0, 1): (r - 1) / 2,
        (0, 3): u / 2,
        (1, 2): -u / 2,
        (0, 2): x / 2,
        (1, 3): x / 2,
        (0, 5): t1 * d / 2,
        (1, 4): -t1 * d / 2,
        (0, 4): t2 * d / 2,
        (1, 5): t2 * d / 2,
        (2, 5): (u * t1 + x * t2) / d,
        (3, 4): -(u * t1 + x * t2) / d,
        (2, 4): (u * t2 - x * t1) / d,
        (3, 5): (u * t2 - x * t1) / d,
        (2, 3): -m1 / 2,
    }


#: corrected tables per branch, in the order of ``_BRANCH_LABELS``
_CORRECTED_BRANCHES = (_branch_both_degenerate, _branch_minus_degenerate, _branch_plus_degenerate,
                       _branch_generic)


def _printed_minus_degenerate(*args) -> dict:
    # the display's sign error on its t2 cross term
    entries = _branch_minus_degenerate(*args)
    return {**entries, (0, 4): -entries[0, 4], (1, 5): -entries[1, 5]}


def _printed_generic(*args) -> dict:
    return {pair: 2 * v for pair, v in _branch_generic(*args).items()}


#: the displayed formulas per branch: generic at twice the form, the
#: minus-degenerate one with its sign error on the t2 cross term
_PRINTED_BRANCHES = (_branch_both_degenerate, _printed_minus_degenerate, _branch_plus_degenerate,
                     _printed_generic)


def printed_circle_form(p: PolarPairParams, theta) -> tuple[TwoForm, str]:
    """Literal transcription of the displayed branch formulas.

    The ``generic`` display is 2x the fundamental form; the degenerate
    displays are 1x; the ``minus_degenerate`` display carries a sign error
    on its t2 cross term.  Returned unscaled and uncorrected so callers
    can report per-coefficient agreement.
    """
    return _by_branch(p, theta, _PRINTED_BRANCHES)


# ---------------------------------------------------------------------------
# the ANK circle decomposition


def ank_circle_params(r, x, u) -> PolarPairParams:
    """Pole constraint of the maximal set: opposite r and x, equal u."""
    return PolarPairParams(r, x, u, -r, -x, u)


def ank_circle_acs(r, x, u, theta) -> ACS:
    """Member of the maximal (ANK) set for unit (r, x, u) and angle theta."""
    return cp3_to_acs(circle_point(ank_circle_params(r, x, u), theta))


def _mass(a):
    """|a|^2 of complex coordinates, elementwise."""
    return a.real**2 + a.imag**2


def _hopf_pole(a, b, sign: float):
    """Unit (r, x, u) of the poles [a : b] on their edge, by the Hopf map.

    r = (|a|^2 - |b|^2) / m and w = 2 conj(a) b / m with m = |a|^2 + |b|^2 > 0
    give x = Im w and u = sign Re w; a = 0 gives exactly (-1, 0, 0).
    """
    mass_a, mass_b = _mass(a), _mass(b)
    mass = mass_a + mass_b
    w = _product(a.conj(), b)
    return (mass_a - mass_b) / mass, 2.0 * w.imag / mass, sign * 2.0 * w.real / mass


def invert_circle(point: CP3Point) -> tuple[PolarPairParams, float]:
    """Pole parameters and angle reproducing a point of the polar set.

    Valid for points with equal mass on coordinates {0, 3} and {1, 2}
    (equivalently, fundamental form orthogonal to e5^e6), on which it never
    divides by zero.  The poles are read off (z0, z3) and (z1, z2) by the
    Hopf map, and the angle is arg(<plus, z> conj(<minus, z>)) with plus
    and minus the chart's unit poles of those parameters, so
    :func:`circle_point` of the result reproduces the point to rounding, at
    every scale of the coordinates.  For a stack of points the parameters
    and angles are arrays.  A point whose unit representative has a mass
    gap (|z0|^2 + |z3|^2) - (|z1|^2 + |z2|^2), its coefficient of e5^e6,
    beyond ``DEFAULT_TOL`` is not polar (the rule of ``acs.polar_contains``)
    and raises ``ValueError``, naming the first such member of a stack and
    its gap.
    """
    z = _unit(point.scaled())
    z0, z1, z2, z3 = np.moveaxis(z, -1, 0)
    gap = _mass(z0) + _mass(z3) - (_mass(z1) + _mass(z2))
    failure = _first_failure(np.abs(gap) > DEFAULT_TOL)
    if failure is not None:
        member = failure[1]
        message = f"point is not polar: mass gap {gap[member]:.3e} between coordinates {{0, 3}} and {{1, 2}}"
        raise ValueError(at_member(message, member))
    plus_params, minus_params = _hopf_pole(z0, z3, -1.0), _hopf_pole(z1, z2, 1.0)
    plus, minus = _pole_coords(*plus_params, plus=True), _pole_coords(*minus_params, plus=False)
    params = PolarPairParams(*(_scalar(v) for v in (*plus_params, *minus_params)))
    return params, _scalar(np.angle(_product(np.vecdot(plus, z), np.vecdot(minus, z).conj())))


def invert_ank_circle(acs: ACS) -> tuple[float, float, float, float]:
    """(r, x, u, theta) reproducing an ANK structure through the circle map."""
    params, theta = invert_circle(acs_to_cp3(acs))
    return params.r_plus, params.x_plus, params.u_plus, theta


def _draw(rng, n: int, triples: int, angle: bool = True) -> np.ndarray:
    """Columns (k, n) of n random rows, drawn as one normal array (n, 3 triples + 2 angle)
    from ``rng``, anything with ``standard_normal(shape)``: the package passes its seeded
    :class:`kernels._Normals` stream, a caller may pass a numpy ``Generator``.
    Each row reads its own row of normals: three per unit triple, normalized, then two,
    (a, b), for the angle atan2(b, a) in (-pi, pi], uniform since the planar normal is
    rotation-invariant.  Both kinds of ``rng`` continue a stream across calls, so n rows
    draw what n one-row draws do, at every chunking."""
    g = rng.standard_normal((n, 3 * triples + 2 * angle))
    v = g[:, :3 * triples].reshape(n, triples, 3)
    units = (v / np.sqrt(np.vecdot(v, v))[..., None]).reshape(n, 3 * triples)
    angles = np.arctan2(g[:, -1:], g[:, -2:-1]) if angle else g[:, :0]
    return np.ascontiguousarray(np.concatenate([units, angles], axis=1).T)


def _random_ank(rng, n: int) -> ACS:
    """n random members of the ANK set (a stack); a row draws a unit pole triple, then an
    angle: 5 normals (see :func:`_draw`)."""
    return ank_circle_acs(*_draw(rng, n, 1))


def _random_circle(rng, n: int) -> tuple[PolarPairParams, np.ndarray]:
    """Parameters of n random equatorial points; a row draws the plus then the minus
    pole's unit triple, then an angle: 8 normals (see :func:`_draw`)."""
    *params, theta = _draw(rng, n, 2)
    return PolarPairParams(*params), theta


def sample_polar_point(rng, shape: tuple[int, ...] = ()) -> CP3Point:
    """Random point, or stack of points, with equal mass on coordinate pairs {0,3} and {1,2}.

    Such points are exactly the members of the polar set of e5^e6 (the
    coefficient of e5^e6 in the fundamental form equals the mass
    difference of the two pairs).  Each point draws its four real parts,
    then its four imaginary parts, from ``rng`` (anything with
    ``standard_normal(shape)``, as for :func:`_draw`).
    """
    g = rng.standard_normal(tuple(shape) + (2, 4))
    z = g[..., 0, :] + 1j * g[..., 1, :]
    n03 = np.sqrt(np.abs(z[..., 0]) ** 2 + np.abs(z[..., 3]) ** 2)
    n12 = np.sqrt(np.abs(z[..., 1]) ** 2 + np.abs(z[..., 2]) ** 2)
    return CP3Point(z / (np.stack([n03, n12, n12, n03], axis=-1) * np.sqrt(2.0)))
