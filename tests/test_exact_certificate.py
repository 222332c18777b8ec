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
(ANK) set, |N|^2 = kappa, is {c~ = 0}.  The float checks of the norm law
stay: they exercise the shipped kernel, this module the algebra it
implements.
"""

import numpy as np
from sympy import ZZ, ring

from twistorz.acs import ank_reference_acs
from twistorz.algebra import STRUCTURE_CONSTANTS
from twistorz.cp3 import _FORWARD

R, *GENS = ring("a0:4, b0:4", ZZ)
A, B = GENS[:4], GENS[4:]
S = sum(v * v for v in GENS)  # s = |u|^2


def _integral(m: np.ndarray) -> list:
    """The entries of an integral float array as nested Python ints."""
    assert np.array_equal(m, np.round(m))
    return np.round(m).astype(int).tolist()


def _scaled_structure(forward: list) -> list:
    """sJ = F(u u*)^T as a 6x6 nested list of ring elements."""
    # u u* flattened row-major, each entry as its (real, imaginary) pair
    parts = []
    for i in range(4):
        for j in range(4):
            parts += [A[i] * A[j] + B[i] * B[j], B[i] * A[j] - A[i] * B[j]]
    omega = [sum((f * p for f, p in zip(row, parts) if f), R.zero) for row in forward]
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


def _c_tilde(k: list) -> list:
    """s c: the upper entries (0, 1), (0, 2), (1, 2) of the C block of sJ."""
    return [k[3][4], k[3][5], k[4][5]]


def _law(forward: list, ct: list):
    """|2 s^2 N|^2 - 4 kappa (s^4 - s^2 |c~|^2), kappa from the integer ANK reference."""
    kappa = sum(v * v for v in _doubled_tensor(_integral(ank_reference_acs().matrix), 1, ct)) // 4
    k = _scaled_structure(forward)
    c = _c_tilde(k)
    n = _doubled_tensor(k, S * S, ct)
    return kappa, sum(v * v for v in n) - 4 * kappa * (S**4 - S**2 * sum(v * v for v in c))


def test_norm_law_is_a_polynomial_identity():
    kappa, law = _law(_integral(_FORWARD), _integral(STRUCTURE_CONSTANTS))
    assert kappa == 48
    assert law == R.zero


def test_c_block_is_a_triple_of_quadrics():
    # w = conj(z0) z1 + z2 conj(z3), z = a + ib
    re_w = A[0] * A[1] + B[0] * B[1] + A[2] * A[3] + B[2] * B[3]
    im_w = A[0] * B[1] - B[0] * A[1] + B[2] * A[3] - A[2] * B[3]
    mass = [A[i] ** 2 + B[i] ** 2 for i in range(4)]
    quadrics = [2 * re_w, 2 * im_w, mass[1] + mass[2] - mass[0] - mass[3]]
    assert _c_tilde(_scaled_structure(_integral(_FORWARD))) == quadrics


def test_a_corrupted_structure_constant_breaks_the_identity():
    ct = _integral(STRUCTURE_CONSTANTS)
    ct[2][0][1] = -ct[2][0][1]  # [e1, e2] = -e3, [e2, e1] = -e3 as before
    _, law = _law(_integral(_FORWARD), ct)
    assert law != R.zero
