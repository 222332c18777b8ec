"""Numerical extremization of the Nijenhuis norm over Z.

The space is swept by conjugation, J = Q J_ref Q^T with Q in SO(6).
Steepest ascent/descent of the squared norm |N|^2 moves Q along the orbit
by the Cayley retraction Q -> Q (I - t W/2)^{-1} (I + t W/2) of a skew
direction W (Absil, Mahony and Sepulchre, *Optimization Algorithms on
Matrix Manifolds*, 2008, sections 3.6 and 4.1).  The squared norm is
smooth everywhere, its zero set included; ``kernels._norm_sq_gradient``
derives and computes its Euclidean gradient G.  G is pulled back to so(6)
as the skew matrix D = S - S^T, with H = Q^T G Q and S = H J_ref^T -
J_ref^T H, whose entry D[p, r] is the derivative along the plane rotation
Q exp(t E_pr), so that |grad| = |D|_F / sqrt(2).  Each trial rotation
takes one Newton-Schulz step Q -> Q (3 I - Q^T Q) / 2 before it is
evaluated: a product of hundreds of Cayley factors drifts off SO(6),
where rounding alone can "improve" |N|^2 past its maximum.  The search
never touches the closed-form norm law, so its outcome is an independent
confirmation of it.

Restart k starts from the seeded rotation that ``random_acs([seed, k])``
draws, and all restarts advance in lockstep as one (R, 6, 6) stack of
rotations of the reference structure ``vertex_acs(0)``.  Each lockstep
iteration makes one gradient call over the restarts still running, then
a backtracking line search whose every trial is one stacked kernel call
over the restarts still searching.  Both sets are boolean masks over
the restarts, and every per-restart array (rotation, value, step,
direction, counts, stop reason) is indexed by restart; each restart keeps
its own step, doubled after an accepted step and halved after a rejected
trial.  A restart stops for one of three reasons: ``gradient`` when its
gradient falls below ``GRAD_TOL`` (it has converged), ``stalled`` when
its step collapses below ``MIN_STEP`` first, or ``max_iters``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .acs import ACS, _J_REF, _seeded_rotations

INITIAL_STEP = 0.1
#: a restart whose step must halve about 30 times below INITIAL_STEP to
#: improve |N|^2 has stalled
MIN_STEP = 1e-10
#: |grad |N|^2| below which a restart has converged.  Without this test
#: every restart of seeds 100-139 x 20 runs until no step improves |N|^2
#: in rounding, and stops at |grad| up to 2.6e-6 near the maximum
#: (|N|^2 = 48) and up to 1.8e-8 near the zero set.  5e-6 clears that
#: rounding floor: a restart whose step collapses first has stalled.  By the
#: law |grad|^2 = 8 F (48 - F), F = |N|^2, a rounding error e in F near 48
#: leaves |grad| ~ sqrt(384 e): that floor is e ~ 1.8e-14, 2.5 ulp of 48
GRAD_TOL = 5e-6

_EYE = np.eye(6)


@dataclass(frozen=True)
class RestartStop:
    """How one restart ended: ``reason`` is ``gradient``, ``stalled`` or
    ``max_iters``; ``value`` is sign * |N|^2 at the final rotation (the
    functional the restart ascended) and ``evaluations`` counts the
    structures whose Nijenhuis tensor it evaluated."""

    restart: int
    reason: str
    value: float
    iterations: int
    evaluations: int
    rotation: np.ndarray


@dataclass
class SearchReport:
    """Outcome of a search; ``converged`` is the flag of the restart that
    reached ``best_value``, not of any restart.  ``stops`` holds one
    record per restart, in restart order."""

    best_value: float
    best_acs: ACS
    iterations: int
    restarts: int
    converged: bool
    stops: tuple[RestartStop, ...] = ()


def _gradient(q: np.ndarray, j_ref: np.ndarray) -> np.ndarray:
    """Gradient of |N|^2 at Q J_ref Q^T as the skew D, D[p, r] along Q exp(t E_pr).

    Takes stacks (..., 6, 6) of Q and J_ref and returns (..., 6, 6).
    """
    h = q.mT @ kernels._norm_sq_gradient(q @ j_ref @ q.mT) @ q
    s = h @ j_ref.mT - j_ref.mT @ h
    return s - s.mT


def _run(seed: int, restarts: int, max_iters: int, sign: float) -> SearchReport:
    if restarts < 1:
        raise ValueError("need at least one restart")
    q = _seeded_rotations([[seed, rs] for rs in range(restarts)])
    f = sign * kernels.conjugated_norm_sq(q, _J_REF)
    step = np.full(restarts, INITIAL_STEP)
    half = np.zeros((restarts, 6, 6))  # half the unit ascent direction of each restart
    iterations = np.zeros(restarts, dtype=int)
    evaluations = np.ones(restarts, dtype=int)
    reasons = np.full(restarts, "max_iters", dtype=object)
    running = np.ones(restarts, dtype=bool)
    for it in range(1, max_iters + 1):
        if not running.any():
            break
        grad = sign * _gradient(q[running], _J_REF)
        evaluations[running] += 1
        iterations[running] = it
        grad_norm = np.linalg.norm(grad, axis=(-2, -1)) / np.sqrt(2.0)
        converged = grad_norm < GRAD_TOL
        done = running.nonzero()[0][converged]
        reasons[done] = "gradient"
        running[done] = False
        half[running] = 0.5 * grad[~converged] / grad_norm[~converged, None, None]
        searching = running.copy()
        while searching.any():
            members = searching.nonzero()[0]
            w = step[members, None, None] * half[members]
            q_new = q[members] @ np.linalg.solve(_EYE - w, _EYE + w)
            q_new = q_new @ (1.5 * _EYE - 0.5 * q_new.mT @ q_new)
            f_new = sign * kernels.conjugated_norm_sq(q_new, _J_REF)
            evaluations[members] += 1
            better = f_new > f[members]
            accepted = members[better]
            q[accepted], f[accepted] = q_new[better], f_new[better]
            step[members] *= np.where(better, 2.0, 0.5)
            searching[members] = ~better & (step[members] >= MIN_STEP)
        # a running restart leaves the search accepted, with step >= 2 MIN_STEP, or stalled
        stalled = running & (step < MIN_STEP)
        reasons[stalled] = "stalled"
        running &= ~stalled

    stops = tuple(
        RestartStop(rs, reasons[rs], float(f[rs]), int(iterations[rs]), int(evaluations[rs]), q[rs].copy())
        for rs in range(restarts)
    )
    best = int(np.argmax(f))
    best_acs = ACS(q[best] @ _J_REF @ q[best].T)
    return SearchReport(
        best_value=float(np.sqrt(kernels.nijenhuis_norm_sq(best_acs.matrix))),
        best_acs=best_acs,
        iterations=int(iterations.sum()),
        restarts=restarts,
        converged=reasons[best] == "gradient",
        stops=stops,
    )


def maximize(seed: int, restarts: int = 20, max_iters: int = 500) -> SearchReport:
    """Best maximizer over restarts."""
    return _run(seed, restarts, max_iters, sign=+1.0)


def minimize(seed: int, restarts: int = 20, max_iters: int = 500) -> SearchReport:
    """Best minimizer over restarts (the floor of the functional is zero)."""
    return _run(seed, restarts, max_iters, sign=-1.0)
