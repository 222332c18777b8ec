"""The norm law as an exact polynomial identity on all of Z.

Write a representative u = a + ib of a point of CP^3 in 8 integer
variables and let s = |u|^2.  The correspondence matrix ``cp3._FORWARD``
is integral, so sJ = F(u u*)^T has integer polynomial entries.  The
kernel's n = t1 - 2 t3 is quadratic in J, so on sJ it is s^2 n, and

    2 s^2 N = (n~ - n~^T) - 2 s^2 C,    n~ = t1 - 2 t3 evaluated on sJ.

The law |N|^2 = kappa (1 - |c|^2), scaled by 4 s^4, is then

    |2 s^2 N|^2 - 4 kappa (s^4 - s^2 |c~|^2) = 0,    c~ = s c,

an identity of polynomials with integer coefficients.  Expanding it to
the zero polynomial proves the law at every point of Z, not only at
sample points; kappa = 48 comes out of the integer reference structure
exactly.  The c block is a triple of real quadrics in u, so the maximal
(ANK) set, |N|^2 = kappa, is {c~ = 0}.  Its third quadric is minus the
mass gap |z0|^2 + |z3|^2 - |z1|^2 - |z2|^2, which is also the e5^e6
coefficient of s omega, so the ANK set lies in the polar set of e5^e6.
Substituting z1 = -lambda conj(z3), z2 = lambda conj(z0) solves the
first two quadrics identically and turns the third into
(|lambda|^2 - 1)(|z0|^2 + |z3|^2): the ANK set is the family
[z0 : -lambda conj(z3) : lambda conj(z0) : z3] with |lambda| = 1.
Lagrange's identity on the pairs (z0, z3) and (z1, z2) gives
s^2 - |c~|^2 = 4 |q|^2 with q = z0 z2 - z1 z3, so with the law the norm
is one complex quadric, |N|^2 = 4 kappa |q|^2 / |z|^4 = 192 |q|^2 / |z|^4.
Its consequences are checked in floats on the shipped route: the integrable
set lies on the quadric Q = {q = 0}, the ANK set on {|q| = |z|^2 / 2}, Q
holds the tetrahedron edges 01, 12, 23 and 30, edges 02 and 13 meet the ANK set
in the circles |z0| = |z2| and |z1| = |z3|, which are the whole ANK set on the
tetrahedron's boundary, and over each point b of the tetrahedron the phases move
|N| over exactly [sqrt(192) |sqrt(b0 b2) - sqrt(b1 b3)|, sqrt(192) (sqrt(b0 b2) + sqrt(b1 b3))].
The nearly-Kaehler defect is the law again: with the connection doubled to
the integer bracket (2 nabla = [ , ]), the symmetrization that
``nk_defect`` norms satisfies sum (2 S(sJ))^2 = 4 (6 s^2 + 2 |c~|^2), so
nk_defect^2 = 6 + 2 |c|^2 = 8 - |N|^2 / 24: sqrt(6) exactly on the ANK set.
Its basis terms alone are |c| too: sum_{i,j} ((nabla_{e_i} w)(e_i, e_j))^2 =
|c|^2, so the basis identity holds exactly on the ANK set and nowhere else.
The constraint system of the blocks of sJ = s (A B; -B^T C) holds over ZZ: B^T B =
1 + C^2, AB + BC = 0, |cof B|^2 = e2(1 + C^2), the six norm equations and |a|^2 =
|c|^2, each scaled by a power of s.
The closed forms of ``zgeom`` are tables that only add, subtract, multiply and divide,
so the shipped tables run on elements of QQ(alpha, beta, gamma, delta, t), the poles
(alpha, 0, 0, beta) and (0, gamma, delta, 0) and the phase t: each equals omega modulo
the unit relations of the poles and the phase (the corrected branches, the edge-01
family, the pole displays, the ANK circle family), the printed generic display is twice
the form and the printed minus-degenerate display misses it on exactly two pairs.  In floats,
every integrable structure is ``integrable_acs`` of the frames of its blocks'
axial vectors (the converse of its docstring), Q maps to the saddle
b0 b2 = b1 b3 of the tetrahedron and the polar set of e5^e6 to the plane
b0 + b3 = 1/2.
The float checks of the norm law stay: they exercise the shipped kernel, this
module the algebra it implements.  The shipped code runs here too: the kernel on the
polynomial entries of sJ (the norm law's second route), and the kernel, the gradient of
|N|^2 and the block checks on Fraction points of Z (the gradient law
|grad|N|^2|^2 = 8 |N|^2 (48 - |N|^2) and the constraint system, point by point).
"""

from fractions import Fraction

import numpy as np
import pytest
from sympy import QQ, ZZ, field, ring

from twistorz import kernels, search, zgeom
from twistorz.acs import (_UPPER, Blocks, _random_structures, ank_reference_acs, blocks, constraint_residuals,
                          fundamental_form, polar_contains)
from twistorz.algebra import STRUCTURE_CONSTANTS
from twistorz.cp3 import CP3Point, _FORWARD, acs_to_cp3, cp3_to_acs, tetra_coords
from twistorz.exterior import PAIRS, TwoForm
from twistorz.nearly_kaehler import _nabla_tensor, nk_defect
from twistorz.nijenhuis import _random_integrable, cofactor_checks, integrable_acs, nijenhuis_norm
from twistorz.zgeom import (
    _branch_both_degenerate,
    _branch_generic,
    _branch_minus_degenerate,
    _branch_plus_degenerate,
    _edge01_pairs,
    _hopf_pole,
    _pole_minus_pairs,
    _pole_plus_pairs,
    _printed_generic,
    _printed_minus_degenerate,
    _random_ank,
    ank_circle_params,
    circle_point,
    sample_polar_point,
)

# z_k = a_k + i b_k, and lambda = l1 + i l2 for the closed form of the ANK set
R, *GENS = ring("a0:4, b0:4, l1, l2", ZZ)
A, B, (L1, L2) = GENS[:4], GENS[4:8], GENS[8:]
S = sum(v * v for v in A + B)  # s = |u|^2
MASS = [A[i] ** 2 + B[i] ** 2 for i in range(4)]
#: |z0|^2 + |z3|^2 - |z1|^2 - |z2|^2
MASS_GAP = MASS[0] + MASS[3] - MASS[1] - MASS[2]


def _integral(m: np.ndarray) -> list:
    """The entries of an integral float array as nested Python ints."""
    assert np.array_equal(m, np.round(m))
    return np.round(m).astype(int).tolist()


#: the correspondence matrix F as nested ints
FORWARD = _integral(_FORWARD)


def _scaled_structure(re: list = A, im: list = B) -> list:
    """sJ = F(u u*)^T as a 6x6 nested list, for u = re + i im with entries in any ring
    (the integer generators by default) and s = |u|^2."""
    # u u* flattened row-major, each entry as its (real, imaginary) pair
    parts = []
    for i in range(4):
        for j in range(4):
            parts += [re[i] * re[j] + im[i] * im[j], im[i] * re[j] - re[i] * im[j]]
    zero = parts[0] * 0
    omega = [sum((f * p for f, p in zip(row, parts) if f), zero) for row in FORWARD]
    return [[omega[6 * j + i] for j in range(6)] for i in range(6)]


def _doubled_tensor(k: list, s_sq, ct: list) -> list:
    """2 s^2 N of the structure J = K / s, flattened, from K and s^2.

    The kernel's formula, n = t1 - 2 t3 with t1[k] = K^T C_k K and
    t3[k] = sum_m K[k, m] C_m K, over the nonzero structure constants.
    """
    nonzero = [(m, i, p, v) for m in range(6) for i in range(6) for p in range(6) if (v := ct[m][i][p])]
    cj = [[[0] * 6 for _ in range(6)] for _ in range(6)]  # cj[m] = C_m K
    for m, i, p, v in nonzero:
        for j in range(6):
            cj[m][i][j] += v * k[p][j]
    t1 = [[[0] * 6 for _ in range(6)] for _ in range(6)]
    for m, p, q, v in nonzero:
        for i in range(6):
            for j in range(6):
                t1[m][i][j] += k[p][i] * v * k[q][j]
    n = [[[t1[m][i][j] - 2 * sum(k[m][r] * cj[r][i][j] for r in range(6)) for j in range(6)]
          for i in range(6)] for m in range(6)]
    return [n[m][i][j] - n[m][j][i] - 2 * s_sq * ct[m][i][j]
            for m in range(6) for i in range(6) for j in range(6)]


def _doubled_by_kernel(k: list, s_sq, ct: list) -> list:
    """2 s^2 N of J = K / s, flattened, from the shipped kernel run on K with ``kernels._CT``
    swapped for ``ct``: n is quadratic in J, so on K it returns s^2 (N + C) - C, and
    s^2 N = result + (1 - s^2) C."""
    c = np.array(ct, dtype=object)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "_CT", c)
        result = kernels.nijenhuis_components(np.array(k, dtype=object))
    return list((2 * (result + c * (1 - s_sq))).ravel())


#: the two routes to 2 s^2 N: the tests' transcription of the formula and the shipped kernel
TENSOR_ROUTES = pytest.mark.parametrize("tensor", [_doubled_tensor, _doubled_by_kernel],
                                        ids=["transcription", "kernel"])


def _c_tilde(k: list) -> list:
    """s c: the upper entries (0, 1), (0, 2), (1, 2) of the C block of sJ."""
    return [k[3][4], k[3][5], k[4][5]]


def _law(ct: list, tensor=_doubled_tensor):
    """|2 s^2 N|^2 - 4 kappa (s^4 - s^2 |c~|^2), kappa from the integer ANK reference, with
    2 s^2 N from ``tensor``."""
    kappa = sum(v * v for v in tensor(_integral(ank_reference_acs().matrix), 1, ct)) // 4
    k = _scaled_structure()
    c = _c_tilde(k)
    n = tensor(k, S * S, ct)
    return kappa, sum(v * v for v in n) - 4 * kappa * (S**4 - S**2 * sum(v * v for v in c))


@TENSOR_ROUTES
def test_norm_law_is_a_polynomial_identity(tensor):
    kappa, law = _law(_integral(STRUCTURE_CONSTANTS), tensor)
    assert kappa == 48
    assert law == R.zero


def test_c_block_is_a_triple_of_quadrics():
    # w = conj(z0) z1 + z2 conj(z3), z = a + ib
    re_w = A[0] * A[1] + B[0] * B[1] + A[2] * A[3] + B[2] * B[3]
    im_w = A[0] * B[1] - B[0] * A[1] + B[2] * A[3] - A[2] * B[3]
    quadrics = [2 * re_w, 2 * im_w, -MASS_GAP]
    assert _c_tilde(_scaled_structure()) == quadrics


@TENSOR_ROUTES
def test_a_corrupted_structure_constant_breaks_the_identity(tensor):
    ct = _integral(STRUCTURE_CONSTANTS)
    ct[2][0][1] = -ct[2][0][1]  # [e1, e2] = -e3, [e2, e1] = -e3 as before
    _, law = _law(ct, tensor)
    assert law != R.zero


def test_ank_set_lies_in_the_polar_set_of_e5e6():
    k = _scaled_structure()
    # k[5][4] is the e5^e6 coefficient of s omega = (sJ)^T; ANK is c~ = 0
    assert k[5][4] == MASS_GAP == -_c_tilde(k)[2]


def test_ank_set_in_closed_form():
    # z1 = -lambda conj(z3) and z2 = lambda conj(z0), in real and imaginary parts
    on_family = [(A[1], -(L1 * A[3] + L2 * B[3])), (B[1], L1 * B[3] - L2 * A[3]),
                 (A[2], L1 * A[0] + L2 * B[0]), (B[2], L2 * A[0] - L1 * B[0])]
    c = [v.compose(on_family) for v in _c_tilde(_scaled_structure())]
    assert c[:2] == [R.zero, R.zero]  # w vanishes identically
    assert c[2] == (L1**2 + L2**2 - 1) * (MASS[0] + MASS[3])


def test_norm_is_one_complex_quadric():
    # q = z0 z2 - z1 z3 in real and imaginary parts
    re_q = A[0] * A[2] - B[0] * B[2] - (A[1] * A[3] - B[1] * B[3])
    im_q = A[0] * B[2] + B[0] * A[2] - (A[1] * B[3] + B[1] * A[3])
    c = _c_tilde(_scaled_structure())
    assert S**2 - sum(v * v for v in c) - 4 * (re_q**2 + im_q**2) == R.zero


# --- the constraint system of the blocks ------------------------------------------


def _blocks() -> tuple:
    """sA, sB, sC: the 3x3 blocks of sJ = s (A B; -B^T C), as nested lists."""
    k = _scaled_structure()
    return [row[:3] for row in k[:3]], [row[3:] for row in k[:3]], [row[3:] for row in k[3:]]


def _mul(x: list, y: list) -> list:
    return [[sum(x[i][m] * y[m][j] for m in range(3)) for j in range(3)] for i in range(3)]


def _add(x: list, y: list, sign: int = 1) -> list:
    """x + sign y for 3x3 x and y."""
    return [[u + sign * v for u, v in zip(row_x, row_y)] for row_x, row_y in zip(x, y)]


def _plus_s_squared(m: list) -> list:
    """s^2 + m for a 3x3 m: s^2 added on the diagonal."""
    return [[v + S * S if i == j else v for j, v in enumerate(row)] for i, row in enumerate(m)]


def _is_zero(m: list) -> bool:
    return all(v == R.zero for row in m for v in row)


def test_b_block_identity_is_polynomial():
    # J^2 = -1, lower right block: B^T B = 1 + C^2, scaled by s^2
    _, sb, sc = _blocks()
    btb, cc = _mul([list(col) for col in zip(*sb)], sb), _mul(sc, sc)
    assert _is_zero(_add(btb, _plus_s_squared(cc), -1))
    assert not _is_zero(_add(_add(btb, _plus_s_squared(cc), -1), cc, 2))  # negative control: 1 - C^2


def test_off_diagonal_block_identity_is_polynomial():
    # J^2 = -1, upper right block: AB + BC = 0, scaled by s^2
    sa, sb, sc = _blocks()
    ab, bc = _mul(sa, sb), _mul(sb, sc)
    assert _is_zero(_add(ab, bc))
    assert not _is_zero(_add(ab, bc, -1))  # negative control: AB - BC


def _cofactor(m: list) -> list:
    """Row i is the cross product of rows i + 1 and i + 2, as ``nijenhuis._cofactor_matrix``."""
    return [[m[(i + 1) % 3][(j + 1) % 3] * m[(i + 2) % 3][(j + 2) % 3]
             - m[(i + 1) % 3][(j + 2) % 3] * m[(i + 2) % 3][(j + 1) % 3] for j in range(3)] for i in range(3)]


def _cofactor_law(sign: int):
    """2 |cof(sB)|^2 - 2 e2(s^2 + sign (sC)^2), with 2 e2(M) = (tr M)^2 - tr M^2."""
    _, sb, sc = _blocks()
    m = _plus_s_squared([[sign * v for v in row] for row in _mul(sc, sc)])
    doubled_e2 = sum(m[i][i] for i in range(3)) ** 2 - sum(m[i][j] * m[j][i] for i in range(3) for j in range(3))
    return 2 * sum(v * v for row in _cofactor(sb) for v in row) - doubled_e2


def test_cofactor_identity_is_polynomial():
    # cofactor_checks (iii): |cof B|^2 = e2(1 + C^2), scaled by s^4
    assert _cofactor_law(1) == R.zero
    assert _cofactor_law(-1) != R.zero  # negative control: e2(1 - C^2)


def _norm_equations(shift: int) -> list:
    """The six norm equations of ``constraint_residuals`` on sJ, scaled by s^2: row i of sB with
    the a-entries of row i + shift of sA, column i of sB with the c-entries of row i + shift
    of sC, paired as the shipped code pairs them through ``acs._UPPER``."""
    sa, sb, sc = _blocks()
    a, c = ([m[i][j] for i, j in zip(*_UPPER)] for m in (sa, sc))
    pairs = [((_UPPER[0][(i + shift) % 3], _UPPER[1][(i + shift) % 3]), i) for i in range(3)]
    rows = [a[p] ** 2 + a[q] ** 2 + sum(v * v for v in sb[i]) - S * S for (p, q), i in pairs]
    cols = [c[p] ** 2 + c[q] ** 2 + sum(sb[m][i] ** 2 for m in range(3)) - S * S for (p, q), i in pairs]
    return rows + cols


def test_norm_equations_are_polynomial():
    assert _norm_equations(0) == [R.zero] * 6
    assert _norm_equations(1) != [R.zero] * 6  # negative control: each row with the next row's entries


def test_transfer_identity_is_polynomial():
    # |a|^2 = |c|^2, scaled by s^2
    sa, sb, sc = _blocks()
    a, b, c = ([m[i][j] for i, j in zip(*_UPPER)] for m in (sa, sb, sc))
    assert sum(v * v for v in a) - sum(v * v for v in c) == R.zero
    assert sum(v * v for v in a) - sum(v * v for v in b) != R.zero  # negative control: c read off B


# --- the shipped kernel, gradient and block checks at rational points of Z --------
#
# J = sJ / s at an integer point u has rational entries, on which the shipped functions run
# in Fraction arithmetic.  An identity that holds at every point of Z becomes, once its
# denominator (a power of s) is cleared, a polynomial identity in u of known degree d.  By
# Schwartz-Zippel a nonzero polynomial of degree d vanishes at a uniform random point of
# [-1000, 1000]^8 with probability at most d / 2001, independently at each point drawn.


def _rational_points(count: int = 12) -> np.ndarray:
    """J = sJ / s as a (count, 6, 6) object array of Fractions, at seeded integer points u of
    [-1000, 1000]^8."""
    points = []
    for u in np.random.default_rng(29).integers(-1000, 1001, (count, 8)).tolist():
        s = sum(v * v for v in u)
        points.append([[Fraction(v, s) for v in row] for row in _scaled_structure(u[:4], u[4:])])
    return np.array(points, dtype=object)


def test_gradient_law_holds_exactly_at_rational_points(monkeypatch):
    # |grad F|^2 = |D|^2 / 2 = 8 F (48 - F), F = |N|^2, through the shipped search._gradient
    # and kernel with the integer structure constants.  N is s^-2 times a quartic in u and D
    # s^-4 times an octic, so cleared of s^8 the identity has degree at most 16 in u: a false
    # one survives each point with probability at most 16/2001, all 12 with (16/2001)^12
    monkeypatch.setattr(kernels, "_CT", np.array(_integral(STRUCTURE_CONSTANTS), dtype=object))
    j = _rational_points()
    n = kernels.nijenhuis_components(j)
    f = np.sum(n * n, axis=(-3, -2, -1))
    d = search._gradient(np.eye(6, dtype=int), j)
    grad_sq = np.sum(d * d, axis=(-2, -1)) / 2
    assert all(isinstance(v, Fraction) for v in [*f, *grad_sq])
    assert all(g == 8 * v * (48 - v) for g, v in zip(grad_sq, f))
    assert not any(g == 8 * v * (47 - v) for g, v in zip(grad_sq, f))  # negative control


def test_block_constraints_vanish_exactly_on_the_shipped_checks():
    # constraint_residuals and cofactor_checks run on Fractions as they ship; each residual
    # is s^-2 or s^-4 times a polynomial of degree at most 8 in u
    for scale in (1, 2):  # 2J, the negative control, is off Z
        j = scale * _rational_points()
        b = Blocks(j[..., :3, :3], j[..., :3, 3:], j[..., 3:, 3:])
        residuals = np.concatenate([constraint_residuals(b), cofactor_checks(b)], axis=-1)
        assert residuals.shape == (12, 19)
        assert all(isinstance(v, Fraction) for v in residuals.ravel())
        assert np.all(residuals == 0) == (scale == 1)


# --- the zgeom tables on exact elements -------------------------------------------
#
# Each closed form of zgeom is a table {(i, j): value} built with + - * / alone, so the shipped
# tables run on elements of QQ(alpha, beta, gamma, delta, t).  The plus pole is the chart's
# representative (alpha, 0, 0, beta) and the minus pole (0, gamma, delta, 0), with alpha and
# gamma real, beta = b1 + i b2, delta = d1 + i d2 and the circle's phase t = t1 + i t2.

QF, AL, B1, B2, GA, D1, D2, T1, T2 = field("al, b1, b2, ga, d1, d2, t1, t2", QQ)
ZERO, ONE = QF(0), QF(1)
#: |alpha|^2 + |beta|^2 = 1, |gamma|^2 + |delta|^2 = 1 and |t|^2 = 1; the leading terms al^2,
#: ga^2 and t1^2 are coprime, so the three are a Groebner basis and ``rem`` is the normal form
UNIT = [(AL**2 + B1**2 + B2**2 - 1).numer, (GA**2 + D1**2 + D2**2 - 1).numer, (T1**2 + T2**2 - 1).numer]

#: the poles as (re, im) of their coordinates, and their (r, x, u) by the chart
PLUS, PLUS_RXU = ([AL, ZERO, ZERO, B1], [ZERO, ZERO, ZERO, B2]), (AL**2 - B1**2 - B2**2, 2 * AL * B2, -2 * AL * B1)
MINUS, MINUS_RXU = ([ZERO, GA, D1, ZERO], [ZERO, ZERO, D2, ZERO]), (GA**2 - D1**2 - D2**2, 2 * GA * D2, 2 * GA * D1)
#: the degenerate representatives e3 (plus) and e2 (minus), both at (r, x, u) = (-1, 0, 0)
PLUS_DEGENERATE, MINUS_DEGENERATE = ([ZERO, ZERO, ZERO, ONE], [ZERO] * 4), ([ZERO, ZERO, ONE, ZERO], [ZERO] * 4)
DEGENERATE_RXU = (-ONE, ZERO, ZERO)


def _vanishes(v, relations: list) -> bool:
    """Whether the field element v is 0 wherever ``relations`` hold (and its denominator is not)."""
    return QF(v).numer.rem(relations) == 0


def _off(table: dict, re: list, im: list, relations: list = UNIT) -> list:
    """The pairs on which ``table`` differs from omega at u = re + i im, modulo ``relations``,
    under which s = |u|^2 is a nonzero constant: table s - s omega is tested for 0."""
    k = _scaled_structure(re, im)
    s = sum(v * v for v in re + im)
    # s omega has matrix (sJ)^T: its (i, j) coefficient is k[j][i]
    return [(i, j) for i, j in PAIRS if not _vanishes(table.get((i, j), 0) * s - k[j][i], relations)]


def _circle(plus: tuple, minus: tuple, t1=T1, t2=T2) -> tuple:
    """(re, im) of minus + t plus: sqrt(2) times the circle point of the two poles."""
    (pr, pi), (mr, mi) = plus, minus
    return ([m + t1 * a - t2 * b for m, a, b in zip(mr, pr, pi)],
            [m + t1 * b + t2 * a for m, a, b in zip(mi, pr, pi)])


def _branch_args(plus_rxu, minus_rxu, dp, dm, t1=T1, t2=T2, relations: list = UNIT) -> tuple:
    """The arguments of a branch table: the poles' (r, x, u), the phase, p1 and m1 (each
    pole's r + 1) and the roots, dp = sqrt(2 p1), dm = sqrt(2 m1) and q = sqrt(p1 m1) = dp dm / 2."""
    p1, m1 = plus_rxu[0] + 1, minus_rxu[0] + 1
    assert _vanishes(dp * dp - 2 * p1, relations) and _vanishes(dm * dm - 2 * m1, relations)
    return (*plus_rxu, *minus_rxu, t1, t2, p1, m1, dp * dm / 2, dp, dm)


#: the generic pole pair, its roots dp = 2 alpha, dm = 2 gamma, and its circle point
GENERIC = _branch_args(PLUS_RXU, MINUS_RXU, 2 * AL, 2 * GA), _circle(PLUS, MINUS)


def test_generic_branch_is_omega_at_the_circle_point():
    args, point = GENERIC
    assert _off(_branch_generic(*args), *point) == []
    # negative control: the conjugate phase
    assert _off(_branch_generic(*_branch_args(PLUS_RXU, MINUS_RXU, 2 * AL, 2 * GA, T1, -T2)), *point) != []


@pytest.mark.parametrize("branch, plus, minus, plus_rxu, minus_rxu, dp, dm", [
    (_branch_both_degenerate, PLUS_DEGENERATE, MINUS_DEGENERATE, DEGENERATE_RXU, DEGENERATE_RXU, ZERO, ZERO),
    (_branch_minus_degenerate, PLUS, MINUS_DEGENERATE, PLUS_RXU, DEGENERATE_RXU, 2 * AL, ZERO),
    (_branch_plus_degenerate, PLUS_DEGENERATE, MINUS, DEGENERATE_RXU, MINUS_RXU, ZERO, 2 * GA),
], ids=["both_degenerate", "minus_degenerate", "plus_degenerate"])
def test_degenerate_branch_is_omega_at_its_representatives(branch, plus, minus, plus_rxu, minus_rxu, dp, dm):
    point = _circle(plus, minus)
    assert _off(branch(*_branch_args(plus_rxu, minus_rxu, dp, dm)), *point) == []
    # negative control: the conjugate phase
    assert _off(branch(*_branch_args(plus_rxu, minus_rxu, dp, dm, T1, -T2)), *point) != []


def test_printed_generic_display_is_twice_the_form():
    args, point = GENERIC
    printed = _printed_generic(*args)
    assert _off({pair: v / 2 for pair, v in printed.items()}, *point) == []
    assert len(_off(printed, *point)) == 14  # negative control: every nonzero entry misses at 1x


def test_printed_minus_degenerate_display_differs_exactly_on_its_t2_cross_term():
    args, point = _branch_args(PLUS_RXU, DEGENERATE_RXU, 2 * AL, ZERO), _circle(PLUS, MINUS_DEGENERATE)
    printed = _printed_minus_degenerate(*args)
    assert _off(printed, *point) == [(0, 4), (1, 5)]
    # by -2 t2 s on e1^e5 and +2 t2 s on e2^e6, s = sqrt((r + 1) / 2) = alpha
    mended = {**printed, (0, 4): printed[0, 4] + 2 * T2 * AL, (1, 5): printed[1, 5] - 2 * T2 * AL}
    assert _off(mended, *point) == []
    # negative control: half the difference mends neither pair
    halfway = {**printed, (0, 4): printed[0, 4] + T2 * AL, (1, 5): printed[1, 5] - T2 * AL}
    assert _off(halfway, *point) == [(0, 4), (1, 5)]


def test_edge01_table_is_omega_on_the_edge():
    # [s : c1 + i c2 : 0 : 0] with s^2 + c1^2 + c2^2 = 1, as (alpha, beta1, beta2)
    point = [AL, B1, ZERO, ZERO], [ZERO, B2, ZERO, ZERO]
    assert _off(_edge01_pairs(AL, B1, B2), *point) == []
    assert _off(_edge01_pairs(AL, B1, -B2), *point) != []  # negative control: the conjugate point


def test_pole_closed_forms_are_polynomial_identities():
    # omega = the corrected pole displays at the unit triples of the two poles
    assert _off(_pole_plus_pairs(*PLUS_RXU), *PLUS) == []
    assert _off(_pole_minus_pairs(*MINUS_RXU), *MINUS) == []


def test_a_flipped_u_breaks_the_minus_pole_identity():
    # the minus pole's u = +2 gamma delta1 has the opposite sign of the plus pole's -2 alpha beta1
    r, x, u = MINUS_RXU
    assert _off(_pole_minus_pairs(r, x, -u), *MINUS) != []


#: on the ANK circle the minus pole is [0 : conj(beta) : -alpha : 0], with gamma = |beta| as
#: its chart's real coordinate: gamma^2 = |beta|^2 takes the place of the minus pole's unit
#: relation, and the leading terms al^2, b1^2 and t1^2 are coprime again
ANK = [UNIT[0], (GA**2 - B1**2 - B2**2).numer, UNIT[2]]


def _ank_family_gaps(minus_rxu: tuple) -> list:
    """Pairs on which the generic table at the pole pair (PLUS_RXU, minus_rxu) misses omega at
    [p alpha : conj(beta) : -alpha : p beta], p = t1 + i t2 with p conj(p) = 1: that point is the
    circle point of the ANK pole pair at the phase p beta / gamma."""
    point = [T1 * AL, B1, -AL, T1 * B1 - T2 * B2], [T2 * AL, -B2, ZERO, T1 * B2 + T2 * B1]
    args = _branch_args(PLUS_RXU, minus_rxu, 2 * AL, 2 * GA, (T1 * B1 - T2 * B2) / GA, (T1 * B2 + T2 * B1) / GA, ANK)
    return _off(_branch_generic(*args), *point, ANK)


def test_ank_circle_family_is_an_identity(monkeypatch):
    # the shipped ank_circle_params on the field triple: its unit-sphere check, which converts
    # to floats, is the one step that is not ring arithmetic
    monkeypatch.setattr(zgeom, "_check_unit_sphere", lambda *vals: None)
    params = ank_circle_params(*PLUS_RXU)
    assert (params.r_plus, params.x_plus, params.u_plus) == PLUS_RXU
    assert _ank_family_gaps((params.r_minus, params.x_minus, params.u_minus)) == []
    r, x, u = PLUS_RXU
    assert _ank_family_gaps((-r, x, u)) != []  # negative control: x not opposite


def _quadric(z: np.ndarray) -> np.ndarray:
    """q = z0 z2 - z1 z3 per row of coordinates (..., 4)."""
    return z[..., 0] * z[..., 2] - z[..., 1] * z[..., 3]


def test_kernel_norm_is_the_quadric_in_floats():
    # the shipped kernel against 192 |q|^2 / |z|^4, at representatives of every scale from 0.1 to 10
    rng = np.random.default_rng(19)
    z = rng.standard_normal((500, 4)) + 1j * rng.standard_normal((500, 4))
    z *= 10.0 ** rng.uniform(-1.0, 1.0, (500, 1))
    quadric = 192.0 * np.abs(_quadric(z)) ** 2 / np.vecdot(z, z).real ** 2
    # |N|^2 <= 48 rounds to a few 1e-14 (measured 5.0e-14)
    assert np.max(np.abs(kernels.nijenhuis_norm_sq(cp3_to_acs(z).matrix) - quadric)) <= 1e-12


def test_integrable_set_lies_on_the_quadric():
    # |N| = 0 exactly where q = 0: the integrable set is the complex quadric Q
    # (measured 2.2e-16 at acs_to_cp3's unit coordinates)
    z = acs_to_cp3(_random_integrable(np.random.default_rng(20), 300)).coords
    assert np.max(np.abs(_quadric(z))) <= 1e-13


def test_ank_set_lies_on_half_the_quadric_bound():
    # |N|^2 = 48 exactly where |q| = |z|^2 / 2 (measured 3.9e-16), and the ANK
    # set's tetrahedron image is the segment b0 = b2, b1 = b3 (measured 5.6e-16)
    point = acs_to_cp3(_random_ank(np.random.default_rng(21), 300))
    assert np.max(np.abs(np.abs(_quadric(point.coords)) - 0.5)) <= 1e-13
    b = tetra_coords(point)
    assert np.max(np.abs(b[:, :2] - b[:, 2:])) <= 1e-13


@pytest.mark.parametrize("edge", [(0, 1), (1, 2), (2, 3), (3, 0)])
def test_four_tetrahedron_edges_lie_on_the_quadric(edge):
    # q has no term in z_i z_j for these four edges, so every point of them is
    # integrable (measured 2.7e-15)
    rng = np.random.default_rng(22)
    z = np.zeros((200, 4), dtype=complex)
    z[:, edge] = rng.standard_normal((200, 2)) + 1j * rng.standard_normal((200, 2))
    assert np.max(nijenhuis_norm(cp3_to_acs(z))) <= 1e-13


@pytest.mark.parametrize("edge", [(0, 2), (1, 3)], ids=["02", "13"])
def test_edges_02_and_13_meet_the_ank_set_in_circles(edge):
    # on [1 : 0 : lambda : 0] and [0 : 1 : 0 : lambda] with |lambda| = 1, |q| = |z|^2 / 2,
    # so |N| = sqrt(48) (measured 2.7e-15)
    lam = np.exp(1j * np.random.default_rng(23).uniform(0.0, 2.0 * np.pi, 200))
    z = np.zeros((200, 4), dtype=complex)
    z[:, edge] = np.stack([np.ones(200), lam], axis=-1)
    assert np.max(np.abs(nijenhuis_norm(cp3_to_acs(z)) - np.sqrt(48.0))) <= 1e-13


@pytest.mark.parametrize("face", range(4))
def test_the_edge_circles_are_the_ank_set_on_the_boundary(face):
    # on the face z_k = 0, q is the one product z_i z_j of the edge ij among 02 and 13 that
    # avoids k, so |N|^2 = 192 b_i b_j and, with t the fourth coordinate,
    # 1 - |N|^2 / 48 = (b_i - b_j)^2 + t (2 - t): |N|^2 = 48 only where t = 0 and b_i = b_j,
    # the circle on edge ij (measured 7.2e-16)
    i, j = (0, 2) if face % 2 else (1, 3)
    (other,) = {0, 1, 2, 3} - {i, j, face}
    rng = np.random.default_rng(28)
    z = rng.standard_normal((300, 4)) + 1j * rng.standard_normal((300, 4))
    z[:, face] = 0.0
    b = tetra_coords(CP3Point(z))
    t = b[:, other]
    rest = 1.0 - kernels.nijenhuis_norm_sq(cp3_to_acs(z).matrix) / 48.0
    assert np.max(np.abs(rest - ((b[:, i] - b[:, j]) ** 2 + t * (2.0 - t)))) <= 1e-13


def test_the_phases_move_the_norm_over_the_fibre_envelope():
    # |q| / |z|^2 = |w0 - w1| with |w0| = sqrt(b0 b2) and |w1| = sqrt(b1 b3) for w0 = z0 z2 and
    # w1 = z1 z3 of the unit representative, so over each b the phases move |N| over
    # [sqrt(192) |sqrt(b0 b2) - sqrt(b1 b3)|, sqrt(192) (sqrt(b0 b2) + sqrt(b1 b3))]
    acs = _random_structures([[27, k] for k in range(2000)])
    point = acs_to_cp3(acs)
    b = tetra_coords(point)
    w0, w1 = np.sqrt(b[:, 0] * b[:, 2]), np.sqrt(b[:, 1] * b[:, 3])
    low, high = np.sqrt(192.0) * np.abs(w0 - w1), np.sqrt(192.0) * (w0 + w1)
    norm = nijenhuis_norm(acs)
    assert np.all((low - 1e-13 <= norm) & (norm <= high + 1e-13))
    # turning z1's phase aligns z1 z3 with z0 z2 (the low end) or with -z0 z2 (the high end)
    # (measured 4.4e-15)
    z = point.coords
    p0, p1 = z[:, 0] * z[:, 2], z[:, 1] * z[:, 3]
    turn = (p0 / np.abs(p0)) / (p1 / np.abs(p1))
    for sign, end in ((1.0, low), (-1.0, high)):
        turned = z.copy()
        turned[:, 1] *= sign * turn
        assert np.max(np.abs(nijenhuis_norm(cp3_to_acs(turned)) - end)) <= 1e-13


def _axial(m: np.ndarray) -> np.ndarray:
    """The vector w with m v = w x v, per antisymmetric 3x3 matrix of a stack."""
    return np.stack([m[..., 2, 1], m[..., 0, 2], m[..., 1, 0]], axis=-1)


def _frame(m: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Rotations [w, v, m v] per block m = [w]x of unit w, with a random unit v orthogonal to w."""
    w = _axial(m)
    v = np.cross(w, rng.standard_normal(w.shape))
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    return np.stack([w, v, (m @ v[..., None])[..., 0]], axis=-1)


def test_every_integrable_structure_is_an_integrable_acs():
    # the converse in integrable_acs's docstring, on Segre points [a : mu a : mu b : b] of Q:
    # the blocks' axial vectors, each completed to a frame, are the rotation pair
    rng = np.random.default_rng(24)
    a, b, mu = rng.standard_normal((3, 300)) + 1j * rng.standard_normal((3, 300))
    acs = cp3_to_acs(np.stack([a, mu * a, mu * b, b], axis=-1))
    assert np.max(nijenhuis_norm(acs)) <= 1e-13  # measured 2.0e-15
    block = blocks(acs)
    rebuilt = integrable_acs(_frame(block.A, rng), _frame(block.C, rng))
    assert np.max(np.abs(rebuilt.matrix - acs.matrix)) <= 1e-12  # measured 3.3e-16
    # B carries the one axial vector to the other (measured 3.3e-16)
    assert np.max(np.abs(-(block.B.mT @ _axial(block.A)[..., None])[..., 0] - _axial(block.C))) <= 1e-13


def test_integrable_set_maps_to_the_saddle():
    # q = 0 gives |z0 z2| = |z1 z3|: in the tetrahedron, b0 b2 = b1 b3 (measured 1.0e-16)
    b = tetra_coords(acs_to_cp3(_random_integrable(np.random.default_rng(25), 300)))
    assert np.max(np.abs(b[:, 0] * b[:, 2] - b[:, 1] * b[:, 3])) <= 1e-13


def test_polar_set_of_e5e6_maps_to_a_plane():
    # the e5^e6 coefficient is the mass gap, so the polar set is b0 + b3 = 1/2 (measured 3.9e-16)
    acs = cp3_to_acs(sample_polar_point(np.random.default_rng(26), (300,)))
    assert np.all(polar_contains(TwoForm.basis(4, 5), fundamental_form(acs)))
    b = tetra_coords(acs_to_cp3(acs))
    assert np.max(np.abs(b[:, 0] + b[:, 3] - 0.5)) <= 1e-13


def _doubled_nabla(ct: list) -> tuple[list, list]:
    """(K, d) on K = sJ, d[i][j][l] = 2 (nabla_{e_i} w)(e_j, e_l), with nabla doubled
    to the bracket of structure constants ``ct``."""
    k = _scaled_structure()
    # f[i][j][l] = -w([e_i, e_j], e_l) = -sum_m ct[m][i][j] K[l][m], as w has matrix K^T
    f = [[[sum((-ct[m][i][j] * k[l][m] for m in range(6) if ct[m][i][j]), R.zero) for l in range(6)]
          for j in range(6)] for i in range(6)]
    # f and its swap in j and l
    return k, [[[f[i][j][l] - f[i][l][j] for l in range(6)] for j in range(6)] for i in range(6)]


def _defect_law(ct: list):
    """sum (2 S)^2 - 4 (6 s^2 + 2 |c~|^2) on K = sJ, where 2 S is the symmetrization
    S(e_i, e_j; e_l) = (nabla_{e_i} w)(e_j, e_l) + (nabla_{e_j} w)(e_i, e_l) of
    ``nk_defect``."""
    k, d = _doubled_nabla(ct)
    symmetrized = [d[i][j][l] + d[j][i][l] for i in range(6) for j in range(6) for l in range(6)]
    return sum(v * v for v in symmetrized) - 4 * (6 * S**2 + 2 * sum(v * v for v in _c_tilde(k)))


def _basis_law(ct: list):
    """sum_{i,j} d[i][i][j]^2 - 4 |c~|^2 on K = sJ: the basis terms (nabla_{e_i} w)(e_i, e_j)
    that ``nk_basis_identity`` checks have squares summing to |c|^2."""
    k, d = _doubled_nabla(ct)
    return sum(d[i][i][j] ** 2 for i in range(6) for j in range(6)) - 4 * sum(v * v for v in _c_tilde(k))


def test_nk_defect_is_the_norm_law_again():
    # 4 s^2 nk_defect^2 = 4 (6 s^2 + 2 |c~|^2): nk_defect^2 = 6 + 2 |c|^2
    assert _defect_law(_integral(STRUCTURE_CONSTANTS)) == R.zero


def test_a_corrupted_structure_constant_breaks_the_defect_identity():
    ct = _integral(STRUCTURE_CONSTANTS)
    ct[2][0][1] = -ct[2][0][1]
    assert _defect_law(ct) != R.zero


def test_nk_basis_identity_is_c():
    # sum (2 s nabla_{e_i} w (e_i, e_j))^2 = 4 s^2 |c|^2: the basis identity holds exactly on the ANK set
    assert _basis_law(_integral(STRUCTURE_CONSTANTS)) == R.zero


def test_a_corrupted_structure_pair_breaks_the_basis_identity():
    # the identity is a sum of squares, so a sign flip of one constant keeps it;
    # doubling the antisymmetric pair c^0_12 = -c^0_21 does not
    ct = _integral(STRUCTURE_CONSTANTS)
    assert ct[0][1][2] == -ct[0][2][1] != 0
    ct[0][1][2] *= 2
    ct[0][2][1] *= 2
    assert _basis_law(ct) != R.zero


def test_nk_basis_identity_is_c_in_floats():
    # the shipped _nabla_tensor's basis terms against |c|^2 on random members of Z
    # (order-1 values; measured 5.6e-16)
    acs = _random_structures(range(500))
    d = _nabla_tensor(acs)
    c = blocks(acs).c
    assert np.max(np.abs(np.sum(d[:, range(6), range(6), :] ** 2, axis=(-2, -1)) - np.vecdot(c, c))) <= 1e-12


def test_nk_defect_is_the_norm_law_in_floats():
    # the shipped nk_defect against sqrt(8 - |N|^2 / 24) on random members of Z
    # (order-1 values; measured 1.3e-15)
    acs = _random_structures(range(500))
    law = np.sqrt(8.0 - kernels.nijenhuis_norm_sq(acs.matrix) / 24.0)
    assert np.max(np.abs(nk_defect(acs) - law)) <= 1e-12


def test_ank_points_have_the_closed_form():
    # the converse, on sampled ANK points: lambda from the larger of z0 and z3
    z0, z1, z2, z3 = acs_to_cp3(_random_ank(np.random.default_rng(17), 200)).coords.T
    from_z0 = np.abs(z0) >= np.abs(z3)
    lam = np.where(from_z0, z2 / z0.conj(), -z1 / z3.conj())
    other = np.where(from_z0, z1 + lam * z3.conj(), z2 - lam * z0.conj())
    assert np.max(np.abs(np.abs(lam) - 1.0)) <= 1e-14
    assert np.max(np.abs(other)) <= 1e-14


def test_ank_circle_family_is_the_closed_form_set():
    # the circle through the plus pole of [a : 0 : 0 : b] is [p a : conj(b) : -conj(a) : p b]
    rng = np.random.default_rng(18)
    g = rng.standard_normal((2, 200)) + 1j * rng.standard_normal((2, 200))
    a, b = g / np.linalg.norm(g, axis=0)
    theta = rng.uniform(0.0, 2.0 * np.pi, 200)
    p = np.exp(1j * theta) * (a * b).conj() / np.abs(a * b)
    expected = CP3Point(np.stack([p * a, b.conj(), -a.conj(), p * b], axis=-1))
    point = circle_point(ank_circle_params(*_hopf_pole(a, b, -1.0)), theta)
    assert np.max(point.projective_distance(expected)) <= 1e-14
