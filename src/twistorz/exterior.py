"""2-forms on an oriented Euclidean 6-space.

A :class:`TwoForm` stores the 15 coefficients over the basis e^i ^ e^j,
i < j (0-based indices 0..5), in lexicographic pair order.  There is no
wedge product: a form is built from its pair coefficients or from its
antisymmetric coefficient matrix.  The inner product
on 2-forms makes that basis orthonormal:

    <a, b> = sum_{i<j} a_ij b_ij

which keeps the four fundamental vertex forms at squared norm 3 and makes
polar-set membership an exact zero test.

A :class:`TwoForm` may also hold a stack of forms, coefficients
(..., 15); construction, ``matrix`` and ``inner`` keep the leading axes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .algebra import DIM
from .exceptions import at_member
from .kernels import _first_failure, _scalar

#: ordered index pairs (i, j), i < j, for the 15 basis 2-forms
PAIRS: tuple[tuple[int, int], ...] = tuple(combinations(range(DIM), 2))
PAIR_INDEX: dict[tuple[int, int], int] = {p: k for k, p in enumerate(PAIRS)}
_ROWS, _COLS = np.array(PAIRS).T


@dataclass(frozen=True)
class TwoForm:
    """Antisymmetric bilinear form, 15 coefficients over e^i ^ e^j, i < j.

    A stack of forms has coefficients (..., 15).
    """

    coeffs: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.coeffs, dtype=float)
        if a.shape[-1:] != (len(PAIRS),) or not np.all(np.isfinite(a)):
            raise ValueError("TwoForm needs 15 finite coefficients")
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "coeffs", a)

    @classmethod
    def basis(cls, i: int, j: int) -> "TwoForm":
        """e^i ^ e^j for i != j (antisymmetric in the arguments)."""
        if i == j:
            raise ValueError("basis 2-form needs distinct indices")
        return cls.from_pairs({(i, j): 1.0})

    @classmethod
    def from_pairs(cls, entries: dict[tuple[int, int], float]) -> "TwoForm":
        """Form with the given pair coefficients; array values give a stack."""
        shape = np.broadcast_shapes(*(np.shape(v) for v in entries.values()))
        c = np.zeros(shape + (len(PAIRS),))
        for (i, j), v in entries.items():
            if i < j:
                c[..., PAIR_INDEX[i, j]] += v
            else:
                c[..., PAIR_INDEX[j, i]] -= v
        return cls(c)

    @classmethod
    def from_matrix(cls, m) -> "TwoForm":
        """Build from an antisymmetric coefficient matrix m[i, j] = w(e_i, e_j), or a stack."""
        m = np.asarray(m, dtype=float)
        if m.shape[-2:] != (DIM, DIM):
            raise ValueError("expected a 6x6 matrix")
        # m + m^T of a computed antisymmetric matrix is rounding, far below
        # 1e-12 of its largest entry; a matrix that is not one misses by O(1)
        scale = np.maximum(1.0, np.abs(m).max(axis=(-2, -1)))
        failure = _first_failure(np.abs(m + m.mT).max(axis=(-2, -1)) > 1e-12 * scale)
        if failure is not None:
            raise ValueError(at_member("matrix is not antisymmetric", failure[1]))
        return cls(m[..., _ROWS, _COLS])

    def matrix(self) -> np.ndarray:
        m = np.zeros(self.coeffs.shape[:-1] + (DIM, DIM))
        m[..., _ROWS, _COLS] = self.coeffs
        m[..., _COLS, _ROWS] = -self.coeffs
        return m

    def inner(self, other: "TwoForm"):
        """Form inner product; a float per form of a stack."""
        return _scalar(np.vecdot(self.coeffs, other.coeffs))

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))
