"""Numerical extremization of the Nijenhuis norm over Z.

The space is swept by conjugation, J = Q J_ref Q^T with Q in SO(6).
Steepest ascent/descent of the norm |N| moves Q along the orbit by the
Cayley retraction Q -> Q (I - t W/2)^{-1} (I + t W/2) of a skew direction
W (Absil, Mahony and Sepulchre, *Optimization Algorithms on Matrix
Manifolds*, 2008).  The gradient is analytic: one evaluation of the
Nijenhuis components, the adjoint of the tensor definition for
d|N|^2/dJ, and its pull-back to the 15 coordinate-plane generators of
so(6).  It is built from the tensor definition alone, so the search never
touches the closed-form norm law and its outcome is an independent
confirmation of it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .acs import ACS, _vertex_matrix, haar_rotation
from .algebra import STRUCTURE_CONSTANTS as _CT

INITIAL_STEP = 0.1
MIN_STEP = 1e-10
GRAD_TOL = 1e-8

#: indices of the 15 coordinate-plane rotations of SO(6)
_PLANES: tuple[tuple[int, int], ...] = tuple(
    (p, q) for p in range(6) for q in range(p + 1, 6)
)
_ROWS, _COLS = (np.array(ix) for ix in zip(*_PLANES))
_EYE = np.eye(6)


@dataclass
class SearchReport:
    best_value: float
    best_acs: ACS
    iterations: int
    restarts: int
    converged: bool


def _objective(q: np.ndarray, j_ref: np.ndarray) -> float:
    return float(np.sqrt(kernels.conjugated_norm_sq(q, j_ref)))


def _norm_grad(q: np.ndarray, j_ref: np.ndarray) -> np.ndarray:
    """Gradient of |N| at Q J_ref Q^T along the 15 plane rotations Q exp(t E_pr).

    E_pr has +1 at (p, r) and -1 at (r, p).  Zero where |N| vanishes (the
    norm is not differentiable there).
    """
    j = q @ j_ref @ q.T
    n = kernels.nijenhuis_components(j)
    norm = float(np.sqrt(np.sum(n * n)))
    if norm == 0.0:
        return np.zeros(len(_PLANES))
    # G = dF/dJ for F = |N|^2 is the adjoint of the bilinear terms of
    # N = c(J., J.) - c - J c(., J.) - J c(J., .) applied to dF/dN = 2N.
    # N and c are antisymmetric in their last two slots, so the two J slots
    # of c(J., J.) contribute equally, and so do the outer J factors of the
    # last two terms and their inner J factors: three contractions, each
    # counted twice.
    u = np.tensordot(_CT, j, axes=([2], [0]))  # u[k,a,j] = c[k,a,q] J[q,j]
    w = np.tensordot(j, n, axes=([0], [0]))  # w[m,i,b] = J[k,m] N[k,i,b]
    g = 4.0 * (
        np.tensordot(u, n, axes=([0, 2], [0, 2]))  # c(J., J.)
        - np.tensordot(n, u, axes=([1, 2], [1, 2]))  # outer J of J c(., J.), J c(J., .)
        - np.tensordot(_CT, w, axes=([0, 1], [0, 1]))  # their inner J
    )
    # dJ = Q (E J_ref - J_ref E) Q^T, so dF = <E, S> with M = Q^T G Q
    m = q.T @ g @ q
    s = m @ j_ref.T - j_ref.T @ m
    return (s[_ROWS, _COLS] - s[_COLS, _ROWS]) / (2.0 * norm)


def _ascend(q: np.ndarray, j_ref: np.ndarray, sign: float, max_iters: int,
            on_iterate=None):
    """Steepest ascent of sign * norm; returns (Q, value, iters, converged)."""
    f = sign * _objective(q, j_ref)
    step = INITIAL_STEP
    if on_iterate is not None:
        on_iterate(q @ j_ref @ q.T, sign * f)
    for it in range(1, max_iters + 1):
        grad = sign * _norm_grad(q, j_ref)
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm < GRAD_TOL:
            return q, f, it, True
        half = np.zeros((6, 6))  # half the unit skew direction
        half[_ROWS, _COLS] = 0.5 * grad / grad_norm
        half[_COLS, _ROWS] = -half[_ROWS, _COLS]
        moved = False
        while step >= MIN_STEP:
            q_new = q @ np.linalg.solve(_EYE - step * half, _EYE + step * half)
            f_new = sign * _objective(q_new, j_ref)
            if f_new > f:
                q, f = q_new, f_new
                step *= 2.0
                moved = True
                if on_iterate is not None:
                    on_iterate(q @ j_ref @ q.T, sign * f)
                break
            step *= 0.5
        if not moved:
            return q, f, it, True  # step collapsed below MIN_STEP
    return q, f, max_iters, False


def _run(seed: int, restarts: int, max_iters: int, sign: float,
         initial: ACS | None, on_iterate=None) -> SearchReport:
    if restarts < 1:
        raise ValueError("need at least one restart")
    best_f = -np.inf
    best_q = np.eye(6)
    best_ref = _vertex_matrix(0)
    total_iters = 0
    any_converged = False
    for rs in range(restarts):
        if rs == 0 and initial is not None:
            q = np.eye(6)
            j_ref = initial.matrix
        else:
            rng = np.random.default_rng([seed, rs])
            q = haar_rotation(6, rng)
            j_ref = _vertex_matrix(0)
        q, f, iters, converged = _ascend(q, j_ref, sign, max_iters, on_iterate)
        total_iters += iters
        any_converged = any_converged or converged
        if f > best_f:
            best_f, best_q, best_ref = f, q, j_ref
    best = ACS(best_q @ best_ref @ best_q.T)
    return SearchReport(
        best_value=float(np.sqrt(kernels.nijenhuis_norm_sq(best.matrix))),
        best_acs=best,
        iterations=total_iters,
        restarts=restarts,
        converged=any_converged,
    )


def maximize(seed: int, restarts: int = 20, max_iters: int = 500,
             initial: ACS | None = None, on_iterate=None) -> SearchReport:
    """Best maximizer over restarts; restart 0 may be pinned to ``initial``.

    ``on_iterate(matrix, value)`` is called at every accepted step, which
    lets callers audit the trajectory (membership, monotonicity, the
    closed-form law) without re-running the search.
    """
    return _run(seed, restarts, max_iters, sign=+1.0, initial=initial,
                on_iterate=on_iterate)


def minimize(seed: int, restarts: int = 20, max_iters: int = 500,
             initial: ACS | None = None, on_iterate=None) -> SearchReport:
    """Best minimizer over restarts (the floor of the functional is zero)."""
    return _run(seed, restarts, max_iters, sign=-1.0, initial=initial,
                on_iterate=on_iterate)
