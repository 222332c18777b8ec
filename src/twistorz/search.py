"""Numerical extremization of the Nijenhuis norm over Z.

The space is swept by conjugation, J = Q J_ref Q^T with Q in SO(6).
Steepest ascent/descent of the squared norm |N|^2 moves Q along the orbit
by the Cayley retraction Q -> Q (I - t W/2)^{-1} (I + t W/2) of a skew
direction W (Absil, Mahony and Sepulchre, *Optimization Algorithms on
Matrix Manifolds*, 2008).  The squared norm is smooth everywhere, its
zero set included, and its gradient along the 15 coordinate-plane
generators of so(6) is exact by polarization: N is quadratic in J, so
dN[D] = (N(J + D) - N(J - D)) / 2.  One stacked call of the Nijenhuis
kernel gives the whole gradient.  It is built from the tensor definition
alone, so the search never touches the closed-form norm law and its
outcome is an independent confirmation of it.  A restart converges when
the gradient falls below ``GRAD_TOL``; a restart whose step collapses
below ``MIN_STEP`` first does not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .acs import ACS, _vertex_matrix, haar_rotation

INITIAL_STEP = 0.1
#: a restart whose step must halve about 30 times below INITIAL_STEP to
#: improve |N|^2 has stalled
MIN_STEP = 1e-10
#: |grad |N|^2| below which a restart has converged.  Without this test
#: every restart of seeds 100-139 x 20 runs until no step improves |N|^2
#: in rounding, and stops at |grad| up to 2.6e-6 near the maximum
#: (|N|^2 = 48) and up to 1.8e-8 near the zero set.  5e-6 clears that
#: rounding floor: a restart whose step collapses first has stalled
GRAD_TOL = 5e-6

_EYE = np.eye(6)
#: generators E_pr = e_p e_r^T - e_r e_p^T of the 15 coordinate-plane
#: rotations of SO(6), p < r in row-major order
_GENERATORS = np.stack([np.outer(_EYE[p], _EYE[r]) - np.outer(_EYE[r], _EYE[p])
                        for p, r in zip(*np.triu_indices(6, k=1))])


@dataclass
class SearchReport:
    """Outcome of a search; ``converged`` is the flag of the restart that
    reached ``best_value``, not of any restart."""

    best_value: float
    best_acs: ACS
    iterations: int
    restarts: int
    converged: bool


def _grad(q: np.ndarray, j_ref: np.ndarray) -> np.ndarray:
    """Gradient of |N|^2 at Q J_ref Q^T along the 15 plane rotations Q exp(t E_pr)."""
    j = q @ j_ref @ q.T
    d = q @ (_GENERATORS @ j_ref - j_ref @ _GENERATORS) @ q.T  # dJ along each E_pr
    n = kernels.nijenhuis_components(np.concatenate([j[None], j + d, j - d]))
    plus, minus = np.split(n[1:], 2)
    # d|N|^2[D] = 2 <N, dN[D]> = <N, N(J + D) - N(J - D)>
    return np.sum(n[0] * (plus - minus), axis=(-3, -2, -1))


def _ascend(q: np.ndarray, j_ref: np.ndarray, sign: float, max_iters: int,
            on_iterate=None):
    """Steepest ascent of sign * |N|^2; returns (Q, sign * |N|^2, iters, converged)."""
    f = sign * kernels.conjugated_norm_sq(q, j_ref)
    step = INITIAL_STEP
    if on_iterate is not None:
        on_iterate(q @ j_ref @ q.T, float(np.sqrt(sign * f)))
    for it in range(1, max_iters + 1):
        grad = sign * _grad(q, j_ref)
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm < GRAD_TOL:
            return q, f, it, True
        half = np.tensordot(0.5 * grad / grad_norm, _GENERATORS, axes=1)  # half the unit direction
        while step >= MIN_STEP:
            q_new = q @ np.linalg.solve(_EYE - step * half, _EYE + step * half)
            f_new = sign * kernels.conjugated_norm_sq(q_new, j_ref)
            if f_new > f:
                q, f = q_new, f_new
                step *= 2.0
                if on_iterate is not None:
                    on_iterate(q @ j_ref @ q.T, float(np.sqrt(sign * f)))
                break
            step *= 0.5
        else:
            return q, f, it, False  # step collapsed below MIN_STEP
    return q, f, max_iters, False


def _run(seed: int, restarts: int, max_iters: int, sign: float,
         initial: ACS | None, on_iterate=None) -> SearchReport:
    if restarts < 1:
        raise ValueError("need at least one restart")
    best_f = -np.inf
    best_q = np.eye(6)
    best_ref = _vertex_matrix(0)
    best_converged = False
    total_iters = 0
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
        if f > best_f:
            best_f, best_q, best_ref, best_converged = f, q, j_ref, converged
    best = ACS(best_q @ best_ref @ best_q.T)
    return SearchReport(
        best_value=float(np.sqrt(kernels.nijenhuis_norm_sq(best.matrix))),
        best_acs=best,
        iterations=total_iters,
        restarts=restarts,
        converged=best_converged,
    )


def maximize(seed: int, restarts: int = 20, max_iters: int = 500,
             initial: ACS | None = None, on_iterate=None) -> SearchReport:
    """Best maximizer over restarts; restart 0 may be pinned to ``initial``.

    ``on_iterate(matrix, value)`` is called with the norm |N| at every
    accepted step, which lets callers audit the trajectory (membership,
    monotonicity, the closed-form law) without re-running the search.
    """
    return _run(seed, restarts, max_iters, sign=+1.0, initial=initial,
                on_iterate=on_iterate)


def minimize(seed: int, restarts: int = 20, max_iters: int = 500,
             initial: ACS | None = None, on_iterate=None) -> SearchReport:
    """Best minimizer over restarts (the floor of the functional is zero)."""
    return _run(seed, restarts, max_iters, sign=-1.0, initial=initial,
                on_iterate=on_iterate)
