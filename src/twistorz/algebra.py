"""The Lie algebra su(2) + su(2) as R^3 x R^3 with cross-product brackets.

Basis e_1..e_3 spans the first factor, e_4..e_6 the second (0-based
indices 0..5 in code).  The working metric makes this basis orthonormal;
it is minus one half of the (negative definite) Killing-Cartan form, which
only rescales norms and changes no orthogonality, integrability or
membership statement.
"""

from __future__ import annotations

import numpy as np

DIM = 6


def basis_vector(i: int) -> np.ndarray:
    """e_i, which is also the coefficient array of the dual covector e^i."""
    e = np.zeros(DIM)
    e[i] = 1.0
    return e


def bracket(x, y) -> np.ndarray:
    """Lie bracket: componentwise cross product on each su(2) factor.

    Batched: stacks (..., 6) of vectors broadcast against each other.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return np.concatenate([np.cross(x[..., 0:3], y[..., 0:3]), np.cross(x[..., 3:6], y[..., 3:6])], axis=-1)


#: c[k, i, j] with [e_i, e_j] = sum_k c[k, i, j] e_k, tabulated from :func:`bracket`
#: on the basis pairs; read-only
STRUCTURE_CONSTANTS: np.ndarray = np.moveaxis(bracket(np.eye(DIM)[:, None, :], np.eye(DIM)), -1, 0).copy()
STRUCTURE_CONSTANTS.setflags(write=False)


def nabla(x, y) -> np.ndarray:
    """Levi-Civita connection of the bi-invariant metric: half the bracket.

    The package's one definition of the connection; batched as :func:`bracket`.
    """
    return 0.5 * bracket(x, y)
