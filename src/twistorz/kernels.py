"""Nijenhuis tensor kernels of a 6x6 structure matrix, in numpy.

The public functions never call each other through their public names,
so patching or wrapping one of them leaves the others unchanged.
"""

from __future__ import annotations

import numpy as np

from .algebra import STRUCTURE_CONSTANTS as _CT

#: name of the kernel implementation, recorded by reports and benchmarks
BACKEND = "pure"


def nijenhuis_components(j: np.ndarray) -> np.ndarray:
    """N[k, i, j] for N(X, Y) = [JX, JY] - [X, Y] - J[X, JY] - J[JX, Y]."""
    # t1[k,i,j] = c[k,p,q] J[p,i] J[q,j]
    a = np.tensordot(_CT, j, axes=([1], [0]))  # a[k,q,i]
    t1 = np.tensordot(a, j, axes=([1], [0]))  # t1[k,i,j]
    # b[k,i,q] = J[k,m] c[m,i,q]
    b = np.tensordot(j, _CT, axes=([1], [0]))
    t3 = np.tensordot(b, j, axes=([2], [0]))  # t3[k,i,j] = b[k,i,q] J[q,j]
    t4 = np.tensordot(b, j, axes=([1], [0])).transpose(0, 2, 1)  # J[k,m] c[m,p,j] J[p,i]
    n = t1 - _CT - t3 - t4
    # exact antisymmetry in (i, j)
    return 0.5 * (n - n.transpose(0, 2, 1))


def nijenhuis_norm_sq(j: np.ndarray) -> float:
    """Squared Frobenius norm of the Nijenhuis tensor of J."""
    n = _components(j)
    return float(np.sum(n * n))


def conjugated_norm_sq(q: np.ndarray, j_ref: np.ndarray) -> float:
    """Nijenhuis squared norm of Q J_ref Q^T."""
    return _norm_sq(q @ j_ref @ q.T)


# private names bound to the original functions: replacing a public name
# (as a call counter does) leaves the calls between kernels untouched
_components = nijenhuis_components
_norm_sq = nijenhuis_norm_sq
