"""Nijenhuis tensor, its norm functional on Z, and integrability tests.

The squared norm sums (N^k_ij)^2 over all ordered index pairs.  The
closed-form law states that on Z the norm depends only on the lower
diagonal block:  |N|^2 = kappa (1 - c1^2 - c2^2 - c3^2),  with the
calibration constant kappa fixed once as |N|^2 of the factor-swapping
reference structure.  Under the conventions of this package the measured
value is kappa = 48 exactly (see the verification report for the
comparison against the literature normalization).  At the point [z] of
CP^3 the norm is one complex quadric, |N|^2 = 192 |q|^2 / |z|^4 with
q = z0 z2 - z1 z3, so the integrable set is the quadric Q = {q = 0}.

The tensor, the norm, the integrability test, the norm law, the cofactor
checks and the integrable family are batched: given a stack of structures
(an :class:`ACS` holding (..., 6, 6)) they return one value per structure.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import kernels
from .acs import ACS, Blocks, DEFAULT_TOL, _haar_rotations, ank_reference_acs, blocks, hopf_acs
from .exceptions import DomainError, NotRotationError
from .kernels import _require, _scalar


def nijenhuis_tensor(acs: ACS) -> np.ndarray:
    """Components N[k, i, j] of the Nijenhuis tensor on the basis."""
    return kernels.nijenhuis_components(acs.matrix)


def nijenhuis_norm_sq(acs: ACS):
    return kernels.nijenhuis_norm_sq(acs.matrix)


def nijenhuis_norm(acs: ACS):
    return _scalar(np.sqrt(kernels.nijenhuis_norm_sq(acs.matrix)))


@lru_cache(maxsize=1)
def calibration_constant() -> float:
    """kappa = |N|^2 at the factor-swapping reference structure."""
    return nijenhuis_norm_sq(ank_reference_acs())


def max_norm() -> float:
    """sqrt(kappa): the global maximum of the norm functional on Z."""
    return float(np.sqrt(calibration_constant()))


def closed_form_norm(b: Blocks):
    """The norm law: sqrt(kappa (1 - |c|^2)) from the block decomposition.

    Batched over stacked blocks, a float per member.  Raises ``DomainError``
    for blocks with |c| > 1 or a NaN entry of c, naming the first such
    member of a stack.
    """
    rest = 1.0 - np.vecdot(b.c, b.c)
    # 1 - |c|^2 >= 0 holds for the blocks of a structure valid to DEFAULT_TOL;
    # a NaN fails it, and is not worded as below 0
    _require(rest >= -DEFAULT_TOL, DomainError,
             lambda k: f"1 - |c|^2 = {rest[k]:.3e}{' < 0' if rest[k] < 0 else ''}"
                       ": not blocks of a valid structure")
    return _scalar(np.sqrt(calibration_constant() * np.maximum(rest, 0.0)))


def cofactor_checks(b: Blocks) -> np.ndarray:
    """Residuals of the cofactor identity chain for the B block.

    Returns three values along the last axis: (i) max-abs of
    B^T B - 1 - C^2, (ii) |B^a|^2 against e2(B^T B), (iii) |B^a|^2 against
    e2(1 + C^2), where B^a is the cofactor matrix and e2(M) = ((tr M)^2 -
    tr M^2) / 2 the second symmetric function of the eigenvalues of M.
    Every residual is a polynomial in the entries, finite wherever they
    are, det B = 0 included.  (ii) is Cauchy-Binet, |B^a|^2 being the sum
    of the squared 2x2 minors, and holds for every 3x3 B, so it checks the
    cofactor route itself; the evidence about Z lies in (i) and (iii).
    """
    bt_b = b.B.mT @ b.B
    target = np.eye(3, dtype=int) + b.C @ b.C
    r1 = np.max(np.abs(bt_b - target), axis=(-2, -1))
    cof = _cofactor_matrix(b.B)
    cof_sq = np.sum(cof * cof, axis=(-2, -1))
    return np.stack([r1, np.abs(cof_sq - _e2(bt_b)), np.abs(cof_sq - _e2(target))], axis=-1)


def _e2(m: np.ndarray) -> np.ndarray:
    """((tr M)^2 - tr M^2) / 2 per matrix of a stack (..., 3, 3)."""
    tr = np.trace(m, axis1=-2, axis2=-1)
    return (tr * tr - np.sum(m * m.mT, axis=(-2, -1))) / 2


def _cofactor_matrix(m: np.ndarray) -> np.ndarray:
    # row i of the cofactor matrix is the cross product of the other two rows
    return np.cross(m[..., [1, 2, 0], :], m[..., [2, 0, 1], :])


def is_integrable(acs: ACS):
    """Vanishing Nijenhuis tensor within tolerance."""
    return nijenhuis_norm(acs) < DEFAULT_TOL


def integrable_acs(o1, o2) -> ACS:
    """Conjugate of the integrable reference by block rotations diag(O1, O2).

    Every integrable member of Z arises this way, so the family doubles as
    a sampler for the zero set of the norm functional.  Batched over stacks
    of rotation pairs; every block is validated, and an error names the
    first failing pair of a stack.
    """
    q = _block_rotation(o1, o2)
    return hopf_acs().conjugate(q)


def _random_integrable(rng, n: int) -> ACS:
    """n random integrable structures (a stack), one Haar rotation pair each, drawn o1, o2, o1, o2, ...
    from ``rng`` (anything with ``standard_normal(shape)``)."""
    rotations = _haar_rotations(2 * n, 3, rng)
    return integrable_acs(rotations[0::2], rotations[1::2])


def _block_rotation(o1, o2) -> np.ndarray:
    o1 = np.asarray(o1, dtype=float)
    o2 = np.asarray(o2, dtype=float)
    if o1.shape[-2:] != (3, 3) or o2.shape != o1.shape:
        raise NotRotationError("blocks must be 3x3")
    q = np.zeros(o1.shape[:-2] + (6, 6))
    for off, o in ((0, o1), (3, o2)):
        # no entry of a rotation exceeds 1: a member with a larger one (or a NaN) is
        # zeroed, so it fails below, before O^T O could overflow
        bounded = np.where((np.abs(o) <= 1.0 + DEFAULT_TOL).all(axis=(-2, -1))[..., None, None], o, 0.0)
        _require(np.abs(bounded.mT @ bounded - np.eye(3)).max(axis=(-2, -1)) <= DEFAULT_TOL, NotRotationError,
                 "block is not orthogonal")
        _require(np.linalg.det(o) > 0.0, NotRotationError, "block has determinant -1")
        q[..., off : off + 3, off : off + 3] = o
    return q


def norm_law_residual(acs: ACS):
    """|  |N|^2 - closed_form_norm^2  | / kappa per structure."""
    return _scalar(np.abs(nijenhuis_norm_sq(acs) - closed_form_norm(blocks(acs)) ** 2) / calibration_constant())
