"""Covariant derivative of the fundamental form and the ANK membership test.

The connection is :func:`twistorz.algebra.nabla`, half the bracket.  With
left-invariant data the directional term drops out and

    (nabla_X w)(Y, Z) = -w(nabla_X Y, Z) - w(Y, nabla_X Z).

A structure is nearly Kaehler when (nabla_X w)(X, Y) = 0 for all X, Y;
the defect below is the norm of the basis symmetrization of that
expression, which vanishes exactly on nearly Kaehler structures because
the condition is quadratic in X.

ANK structures (blocks A = C = 0, equivalently the maximizers of the
Nijenhuis norm) satisfy the identity on basis directions but not for
mixed vectors; they are not nearly Kaehler.  No member of Z is: the
defect obeys nk_defect^2 = 8 - |N|^2 / 24, so it is sqrt(6) on the ANK set.
"""

from __future__ import annotations

import numpy as np

from .acs import ACS, DEFAULT_TOL, Blocks, blocks
from .algebra import DIM, nabla
from .kernels import _scalar

#: G[i, j] = nabla_{e_i} e_j, the connection on the basis
_G = nabla(np.eye(DIM)[:, None, :], np.eye(DIM))


def nabla_omega(acs: ACS, x, y, z) -> float:
    """(nabla_X w)(Y, Z) for the fundamental form of the structure."""
    return float(_nabla_tensor(acs) @ z @ y @ x)


def _nabla_tensor(acs: ACS) -> np.ndarray:
    """D[..., i, j, k] = (nabla_{e_i} w)(e_j, e_k), assembled in one shot; batched."""
    # -w(nabla_{e_i} e_j, e_k); the second term, -w(e_j, nabla_{e_i} e_k),
    # is its swap in j and k, by antisymmetry of w (coefficient matrix J^T)
    first = -np.einsum("ijm,...km->...ijk", _G, acs.matrix)
    return first - np.swapaxes(first, -2, -1)


def nk_defect(acs: ACS):
    """Norm of S(e_i, e_j; e_k) = (nabla_{e_i} w)(e_j, e_k) + (nabla_{e_j} w)(e_i, e_k).

    Zero exactly when the structure is nearly Kaehler.  Batched: a float
    per structure of a stack.
    """
    d = _nabla_tensor(acs)
    s = d + np.swapaxes(d, -3, -2)
    return _scalar(np.sqrt(np.sum(s * s, axis=(-3, -2, -1))))


def is_ank(acs: ACS):
    """Blocks A and C vanish: the structure swaps the two su(2) factors.

    Batched: a bool per structure of a stack.
    """
    b = blocks(acs)
    a, c = b.A.reshape(b.A.shape[:-2] + (9,)), b.C.reshape(b.C.shape[:-2] + (9,))
    return _scalar((np.sqrt(np.vecdot(a, a)) < DEFAULT_TOL) & (np.sqrt(np.vecdot(c, c)) < DEFAULT_TOL))


def ank_form(frame) -> ACS:
    """Structure with fundamental form e^4 ^ f1 + e^5 ^ f2 + e^6 ^ f3.

    The covectors f_i in span(e^1, e^2, e^3) are the columns of ``frame``,
    which becomes block B (A = C = 0); a stack (..., 3, 3) of frames gives
    a stack of structures.  A frame that is not orthonormal, or one with
    determinant -1 (:class:`WrongOrientationError`: its form leaves Z), is
    rejected, naming the first such member of a stack.
    """
    b = np.asarray(frame, dtype=float)
    zero = np.zeros_like(b)
    return ACS.validate(Blocks(zero, b, zero).reassemble())
