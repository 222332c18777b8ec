"""Shared fixtures and independent brute-force oracles.

The oracles here deliberately avoid the library's code paths and import
nothing from it: the bracket is a literal structure-constant table lookup,
the Nijenhuis tensor is expanded term by term, the identification of
bivectors with covectors is read off its table one line at a time, and a
2-form is evaluated over its coefficient pairs, so every comparison against
them is a genuine dual-route check.  The projective correspondence and
the orientation test are checked against the eigenspace constructions
the library's linear maps replaced: a 6x6 solve for the structure of a
point, Gram-Schmidt plus an SVD annihilator for the point of a
structure, and the adapted-frame determinant for the orientation.
"""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")

EYE6 = np.eye(6)

#: nonzero structure constants as (i, j, k, value): [e_i, e_j] = value * e_k
BRACKET_TABLE = (
    (0, 1, 2, 1.0),
    (0, 2, 1, -1.0),
    (1, 2, 0, 1.0),
    (3, 4, 5, 1.0),
    (3, 5, 4, -1.0),
    (4, 5, 3, 1.0),
)


def oracle_bracket(x, y):
    """Bracket via the literal table, independent of the library's cross products."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    out = np.zeros(6)
    for i, j, k, v in BRACKET_TABLE:
        out[k] += v * (x[i] * y[j] - x[j] * y[i])
    return out


def oracle_nijenhuis(matrix):
    """N[k, i, j] expanded directly from the defining formula."""
    j_mat = np.asarray(matrix, dtype=float)
    out = np.zeros((6, 6, 6))
    for i in range(6):
        for jj in range(6):
            term = (
                oracle_bracket(j_mat @ EYE6[:, i], j_mat @ EYE6[:, jj])
                - oracle_bracket(EYE6[:, i], EYE6[:, jj])
                - j_mat @ oracle_bracket(EYE6[:, i], j_mat @ EYE6[:, jj])
                - j_mat @ oracle_bracket(j_mat @ EYE6[:, i], EYE6[:, jj])
            )
            out[:, i, jj] = term
    return out


#: the identification table, 2 v^a ^ v^b = e_k + sign i e_(k+1), as ((a, b), k, sign) with
#: 0-based k, in the bivector order [01, 02, 03, 23, 31, 12]
IDENTIFICATION = (((0, 1), 0, 1), ((0, 2), 2, 1), ((0, 3), 4, 1),
                  ((2, 3), 0, -1), ((3, 1), 2, -1), ((1, 2), 4, -1))


def oracle_identify(u, v):
    """Complex covector of the bivector u ^ v, one table line at a time."""
    w = np.zeros(6, dtype=complex)
    for (a, b), k, sign in IDENTIFICATION:
        half = (u[a] * v[b] - u[b] * v[a]) / 2  # the coefficient of v^a ^ v^b, halved
        w[k] += half
        w[k + 1] += sign * 1j * half
    return w


def oracle_identify_inverse(w):
    """Bivector coefficients, in the table's order, of a complex covector: the line
    2 v^a ^ v^b = e_k + sign i e_(k+1) gives w_k - sign i w_(k+1)."""
    return np.array([w[k] - sign * 1j * w[k + 1] for _, k, sign in IDENTIFICATION])


def oracle_form_value(w, x, y):
    """w(x, y) summed over the 15 coefficient pairs i < j, without the form's matrix."""
    return sum(c * (x[i] * y[j] - x[j] * y[i]) for c, (i, j) in zip(w.coeffs, combinations(range(6), 2)))


def oracle_nijenhuis_norm_sq(matrix):
    n = oracle_nijenhuis(matrix)
    return float(np.sum(n * n))


def oracle_cp3_to_acs(coords):
    """Vector action J whose covector-action +i eigenspace is identify(u ^ C^4).

    Spans that eigenspace by u ^ v^a for the three a away from the dominant
    coordinate and solves I* alpha_k = -beta_k, I* beta_k = alpha_k on the
    real and imaginary parts.
    """
    u = np.asarray(coords, dtype=complex)
    u = u / np.linalg.norm(u)
    a_star = int(np.argmax(np.abs(u)))
    basis4 = np.eye(4, dtype=complex)
    ws = [oracle_identify(u, basis4[a]) for a in range(4) if a != a_star]
    m = np.empty((6, 6))
    t = np.empty((6, 6))
    for k, w in enumerate(ws):
        m[:, 2 * k] = w.real
        m[:, 2 * k + 1] = w.imag
        t[:, 2 * k] = -w.imag
        t[:, 2 * k + 1] = w.real
    return (t @ np.linalg.inv(m)).T


def oracle_acs_to_cp3(matrix):
    """Point u annihilated by wedging against the +i eigenspace of J^T.

    Orthonormalizes alpha - i J^T alpha over the basis alpha (Gram-Schmidt),
    maps the three eigenvectors to bivectors and takes the null vector of
    the 12x4 wedge map from its SVD.
    """
    i_star = np.asarray(matrix, dtype=float).T
    basis = []
    for k in range(6):
        w = EYE6[:, k] - 1j * i_star[:, k]
        for b in basis:
            w = w - np.vdot(b, w) * b
        nrm = np.linalg.norm(w)
        if nrm > 1e-8:
            basis.append(w / nrm)
        if len(basis) == 3:
            break
    assert len(basis) == 3, "eigenspace did not have complex dimension 3"
    rows = []
    for w in basis:
        b01, b02, b03, b23, b31, b12 = oracle_identify_inverse(w)
        # components of u ^ beta over v^{012}, v^{013}, v^{023}, v^{123}
        rows.append([b12, -b02, b01, 0.0])
        rows.append([-b31, -b03, 0.0, b01])
        rows.append([b23, 0.0, -b03, b02])
        rows.append([0.0, b23, b31, b12])
    sing, vh = np.linalg.svd(np.array(rows, dtype=complex))[1:]
    assert sing[2] > 1e-6 and sing[3] < 1e-8 * sing[0], f"annihilator not 1-dimensional: {sing}"
    return np.conj(vh[-1])


def oracle_orientation_sign(matrix):
    """Sign of det[X1 X2 X3 JX1 JX2 JX3] over an adapted frame built from the basis."""
    m = np.asarray(matrix, dtype=float)
    xs = []
    for k in range(6):
        trial = np.column_stack([c for x in xs + [EYE6[:, k]] for c in (x, m @ x)])
        if np.linalg.matrix_rank(trial, tol=1e-6) == trial.shape[1]:
            xs.append(EYE6[:, k])
        if len(xs) == 3:
            break
    assert len(xs) == 3, "no adapted frame found"
    det = np.linalg.det(np.column_stack(xs + [m @ x for x in xs]))
    assert abs(det) > 1e-12, "adapted frame is numerically singular"
    return 1 if det > 0 else -1


def unit3(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def random_rotation3(rng):
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, [0, 1]] = q[:, [1, 0]]
    return q


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
