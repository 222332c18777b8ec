"""Covariant derivative of the fundamental form and the ANK membership test.

With left-invariant data the directional term drops out and

    (nabla_X w)(Y, Z) = -1/2 w([X, Y], Z) - 1/2 w(Y, [X, Z]).

A structure is nearly Kaehler when (nabla_X w)(X, Y) = 0 for all X, Y;
the defect below is the norm of the basis symmetrization of that
expression, which vanishes exactly on nearly Kaehler structures because
the condition is quadratic in X.

ANK structures (blocks A = C = 0, equivalently the maximizers of the
Nijenhuis norm) satisfy the identity on basis directions but not for
mixed vectors; they are not nearly Kaehler.
"""

from __future__ import annotations

import numpy as np

from .acs import ACS, DEFAULT_TOL, acs_from_form
from .algebra import STRUCTURE_CONSTANTS, basis_vector, bracket
from .exceptions import NotInZError, WrongOrientationError
from .exterior import TwoForm, wedge
from .kernels import _scalar


def nabla_omega(acs: ACS, x, y, z) -> float:
    """(nabla_X w)(Y, Z) for the fundamental form of the structure."""
    om = acs.matrix.T  # coefficient matrix of the fundamental form
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    return float(-0.5 * (bracket(x, y) @ om @ z) - 0.5 * (y @ om @ bracket(x, z)))


def _nabla_tensor(acs: ACS) -> np.ndarray:
    """D[..., i, j, k] = (nabla_{e_i} w)(e_j, e_k), assembled in one shot; batched."""
    om = acs.matrix.mT
    # w([e_i, e_j], e_k) = c[m, i, j] om[m, k];  w(e_j, [e_i, e_k]) = om[j, m] c[m, i, k]
    first = np.einsum("mij,...mk->...ijk", STRUCTURE_CONSTANTS, om)
    second = np.einsum("...jm,mik->...ijk", om, STRUCTURE_CONSTANTS)
    return -0.5 * (first + second)


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
    m = acs.matrix
    a = m[..., 0:3, 0:3].reshape(m.shape[:-2] + (9,))
    c = m[..., 3:6, 3:6].reshape(m.shape[:-2] + (9,))
    return _scalar((np.sqrt(np.vecdot(a, a)) < DEFAULT_TOL) & (np.sqrt(np.vecdot(c, c)) < DEFAULT_TOL))


def ank_form(f1, f2, f3) -> ACS:
    """Structure with fundamental form e^4 ^ f1 + e^5 ^ f2 + e^6 ^ f3.

    The fi must be an orthonormal triple inside span(e^1, e^2, e^3); the
    resulting structure has blocks A = C = 0.  Orientation restricts the
    triple to frames with determinant +1; frames with determinant -1 are
    rejected rather than silently sign-flipped.
    """
    fs = [np.asarray(f, dtype=float) for f in (f1, f2, f3)]
    frame = np.vstack(fs)
    if np.max(np.abs(frame[:, 3:6])) > DEFAULT_TOL:
        raise NotInZError("covectors must lie in span(e^1, e^2, e^3)")
    gram = frame[:, 0:3] @ frame[:, 0:3].T
    if np.max(np.abs(gram - np.eye(3))) > DEFAULT_TOL:
        raise NotInZError("covector triple is not orthonormal")
    if np.linalg.det(frame[:, 0:3]) < 0:
        raise WrongOrientationError(
            "covector frame has determinant -1; the assembled form leaves Z"
        )
    w = TwoForm.zero()
    for i, f in enumerate(fs):
        w = w + wedge(basis_vector(3 + i), f)
    return acs_from_form(w)
