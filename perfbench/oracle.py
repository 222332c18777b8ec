"""Independent reference computations for the benchmark's output checks.

Nothing here imports twistorz.  The bracket is the literal structure
table of su(2) + su(2), the Nijenhuis tensor is expanded term by term
from its definition, and the orientation test is the sign of the
Pfaffian, so every check made with these functions is a second route to
the number the program prints.
"""

from __future__ import annotations

import math

import numpy as np

EYE6 = np.eye(6)

#: nonzero brackets as (i, j, k, value): [e_i, e_j] = value * e_k
BRACKET_TABLE = (
    (0, 1, 2, 1.0),
    (0, 2, 1, -1.0),
    (1, 2, 0, 1.0),
    (3, 4, 5, 1.0),
    (3, 5, 4, -1.0),
    (4, 5, 3, 1.0),
)


def bracket(x, y) -> np.ndarray:
    out = np.zeros(6)
    for i, j, k, v in BRACKET_TABLE:
        out[k] += v * (x[i] * y[j] - x[j] * y[i])
    return out


def nijenhuis(j) -> np.ndarray:
    """N[:, i, k] = [Je_i, Je_k] - [e_i, e_k] - J[e_i, Je_k] - J[Je_i, e_k]."""
    j = np.asarray(j, dtype=float)
    out = np.zeros((6, 6, 6))
    for i in range(6):
        for k in range(6):
            ei, ek = EYE6[:, i], EYE6[:, k]
            out[:, i, k] = (
                bracket(j @ ei, j @ ek)
                - bracket(ei, ek)
                - j @ bracket(ei, j @ ek)
                - j @ bracket(j @ ei, ek)
            )
    return out


def norm(j) -> float:
    n = nijenhuis(j)
    return math.sqrt(float(np.sum(n * n)))


def _pair_matrix(pairs) -> np.ndarray:
    """Vector action with e_a -> s e_b and e_b -> -s e_a for each (a, b, s)."""
    m = np.zeros((6, 6))
    for a, b, s in pairs:
        m[b, a] = s
        m[a, b] = -s
    return m


def vertex(k: int) -> np.ndarray:
    """Vertex structures e1 -> +-e2, e3 -> +-e4, e5 -> +-e6 (+++, +--, -+-, --+)."""
    signs = ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1))[k]
    return _pair_matrix(zip((0, 2, 4), (1, 3, 5), map(float, signs)))


def hopf() -> np.ndarray:
    """Integrable reference: e1 -> e4, e2 -> e3, e5 -> e6."""
    return _pair_matrix(((0, 3, 1.0), (1, 2, 1.0), (4, 5, 1.0)))


def swap() -> np.ndarray:
    """Factor-swapping reference: e_i -> -e_{i+3}."""
    return _pair_matrix(((i, i + 3, -1.0) for i in range(3)))


#: |N|^2 at the factor-swapping structure (48 in this normalization)
KAPPA = norm(swap()) ** 2
MAX_NORM = math.sqrt(KAPPA)


def nabla_form(j, x, y, z) -> float:
    """(nabla_X w)(Y, Z) = -1/2 w([X, Y], Z) - 1/2 w(Y, [X, Z]), w(U, V) = g(JU, V)."""
    j = np.asarray(j, dtype=float)
    return float(-0.5 * (j @ bracket(x, y)) @ z - 0.5 * (j @ y) @ bracket(x, z))


def nk_defect(j) -> float:
    """Norm of (nabla_{e_a} w)(e_b, e_c) + (nabla_{e_b} w)(e_a, e_c) over all a, b, c."""
    total = 0.0
    for a in range(6):
        for b in range(6):
            for c in range(6):
                s = nabla_form(j, EYE6[a], EYE6[b], EYE6[c]) + nabla_form(j, EYE6[b], EYE6[a], EYE6[c])
                total += s * s
    return math.sqrt(total)


def pfaffian(a) -> float:
    """Pfaffian by expansion along the first row."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if n == 0:
        return 1.0
    total = 0.0
    for k in range(1, n):
        rest = [r for r in range(n) if r not in (0, k)]
        total += (-1.0) ** (k + 1) * a[0, k] * pfaffian(a[np.ix_(rest, rest)])
    return total


REFERENCE_PFAFFIAN_SIGN = math.copysign(1.0, pfaffian(vertex(0)))


def membership_residuals(j) -> tuple[float, float, bool]:
    """(max |J^2 + 1|, max |J^T J - 1|, orientation matches vertex 0)."""
    j = np.asarray(j, dtype=float)
    r_complex = float(np.max(np.abs(j @ j + EYE6)))
    r_orth = float(np.max(np.abs(j.T @ j - EYE6)))
    oriented = math.copysign(1.0, pfaffian(0.5 * (j - j.T))) == REFERENCE_PFAFFIAN_SIGN
    return r_complex, r_orth, oriented


def in_z(j, tol: float = 1e-9) -> bool:
    r_complex, r_orth, oriented = membership_residuals(j)
    return r_complex <= tol and r_orth <= tol and oriented


def haar_so(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed rotation: QR of a Gaussian matrix, signs fixed by diag(R)."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, [0, 1]] = q[:, [1, 0]]
    return q


def random_member(rng: np.random.Generator) -> np.ndarray:
    """Q J_0 Q^T with Q Haar in SO(6): a uniformly placed member of Z."""
    q = haar_so(6, rng)
    return q @ vertex(0) @ q.T


def block_norms(j) -> tuple[float, float]:
    """Frobenius norms of the diagonal 3x3 blocks A and C."""
    j = np.asarray(j, dtype=float)
    return float(np.linalg.norm(j[:3, :3])), float(np.linalg.norm(j[3:, 3:]))


def tetra(u) -> np.ndarray:
    mags = np.abs(np.asarray(u, dtype=complex)) ** 2
    return mags / mags.sum()


def projective_gap(p, q) -> float:
    """1 - |<p, q>| / (|p| |q|): zero exactly when [p] = [q]."""
    p = np.asarray(p, dtype=complex)
    q = np.asarray(q, dtype=complex)
    return float(1.0 - abs(np.vdot(p, q)) / (np.linalg.norm(p) * np.linalg.norm(q)))
