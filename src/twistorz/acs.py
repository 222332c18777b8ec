"""The twistor space Z of orthogonal, orientation-compatible almost
complex structures on su(2) + su(2).

Convention: an :class:`ACS` stores the VECTOR action J (column i is
J e_i).  The induced action on covectors is the transpose, which equals
-J for members of Z.  The fundamental form w(X, Y) = g(JX, Y) then has
coefficient matrix J^T, so structures and forms convert by transposition.

Where noted, a function also takes a stack of structures along a leading
batch axis and returns one value per structure.

The orientation of Z is defined by the reference structure ``vertex_acs(0)``
(vector action e1 -> e2, e3 -> e4, e5 -> e6); for it the adapted-frame
determinant sign, which equals the sign of the Pfaffian, is -1, and
validation requires every member to match.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import DIM
from .exceptions import (
    NotComplexError,
    NotOrthogonalError,
    WrongOrientationError,
    ZeroFormError,
)
from .exterior import TwoForm
from .kernels import _Normals, _require, _scalar

#: the package's one exactness tolerance, for J^2 = -1, orthogonality, the
#: integrable (N = 0), ANK (A = C = 0) and polar predicates: far above the
#: rounding of order-1 6x6 products (~1e-15), far below any difference of
#: structure
DEFAULT_TOL = 1e-9
_EYE = np.eye(DIM)


@dataclass(frozen=True)
class ACS:
    """Validated almost complex structure; construct via :meth:`validate`.

    The plain constructor trusts its input (used on hot paths where the
    matrix is a conjugate of a validated one); everything user-facing goes
    through :meth:`validate`.  The trusted constructor also takes a stack
    (..., 6, 6) of such matrices, which the batched functions accept.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float).copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def validate(cls, matrix) -> "ACS":
        """Check J^2 = -1, orthogonality and orientation; raise otherwise.

        Takes one matrix or a stack (..., 6, 6) and checks every member.  The
        checks run in order (finite entries, entries of modulus at most 1,
        J^2 = -1, J^T J = 1, orientation), and the error reports the first
        check that any member fails, at its first such member, with its
        residual: for one matrix, the first check it fails.
        """
        m = np.asarray(matrix, dtype=float)
        if m.shape[-2:] != (DIM, DIM):
            raise NotComplexError("expected a finite 6x6 matrix")
        for check in _checks(m):
            _require(*check)
        # project onto exact antisymmetry (members of Z satisfy J^T = -J);
        # this makes the block decomposition reassemble bit-for-bit
        return cls(0.5 * (m - m.mT))

    def conjugate(self, q) -> "ACS":
        """Q J Q^T for Q in SO(6), or a stack of them; stays in Z, no re-validation."""
        q = np.asarray(q, dtype=float)
        return ACS(q @ self.matrix @ q.mT)


def _checks(m: np.ndarray):
    """The arguments of :func:`kernels._require` (ok, error, message[, residual]) per check
    of :meth:`ACS.validate`, in check order, over a stack (..., 6, 6)."""
    finite = np.isfinite(m).all(axis=(-2, -1))
    m = np.where(finite[..., None, None], m, 0.0)  # a non-finite member fails as finite only
    # every entry of an orthogonal matrix has modulus at most 1: a larger one
    # fails on this finite residual and is zeroed before the products, which
    # would overflow for entries near 1e308
    r_bound = np.abs(m).max(axis=(-2, -1)) - 1.0
    bounded = r_bound <= DEFAULT_TOL
    m = np.where(bounded[..., None, None], m, 0.0)
    r_complex = np.abs(m @ m + _EYE).max(axis=(-2, -1))
    r_orth = np.abs(m.mT @ m - _EYE).max(axis=(-2, -1))
    return (
        (finite, NotComplexError, "expected a finite 6x6 matrix"),
        (bounded, NotOrthogonalError, "J has an entry of modulus above 1, so J^T J != identity", r_bound),
        (r_complex <= DEFAULT_TOL, NotComplexError, "J^2 != -identity", r_complex),
        (r_orth <= DEFAULT_TOL, NotOrthogonalError, "J^T J != identity", r_orth),
        (orientation_sign(m) == REFERENCE_ORIENTATION, WrongOrientationError,
         "J induces the opposite orientation from the reference structure"),
    )


def _in_z(matrix):
    """Whether each matrix of a stack (..., 6, 6) passes :meth:`ACS.validate`."""
    m = np.asarray(matrix, dtype=float)
    return _scalar(np.all([ok for ok, *_ in _checks(m)], axis=0))


def _perfect_matchings(idx: tuple[int, ...]):
    """(sign, pairs) over the perfect matchings of ``idx``: the Pfaffian's terms."""
    if not idx:
        yield 1, ()
        return
    for k in range(1, len(idx)):
        rest = idx[1:k] + idx[k + 1 :]
        for sign, pairs in _perfect_matchings(rest):
            yield (-1) ** (k - 1) * sign, ((idx[0], idx[k]),) + pairs


_MATCHINGS = list(_perfect_matchings(tuple(range(DIM))))
_PF_SIGNS = np.array([sign for sign, _ in _MATCHINGS], dtype=float)
#: flat (row-major) indices of the three factors of each term
_PF_FLAT = np.array([[i * DIM + j for i, j in pairs] for _, pairs in _MATCHINGS])


def orientation_sign(matrix):
    """Sign of det[X1 X2 X3 JX1 JX2 JX3] for an adapted frame, as sign(Pf J).

    Defined for J in O(6) with J^2 = -1 (what :meth:`ACS.validate` passes
    after its complex and orthogonal checks): such J is antisymmetric with
    Pf(J)^2 = det J = 1.  Both signs are constant on each of the two
    components of that set, flip under J -> -J, and agree on the reference
    structure, so they agree everywhere.  The Pfaffian is the explicit
    15-term sum over the antisymmetric part; where it vanishes (J outside
    the domain) the result is 0.  Batched: an int per matrix of a stack.
    """
    m = np.asarray(matrix, dtype=float)
    a = 0.5 * (m - m.mT)
    pf = np.take(a.reshape(a.shape[:-2] + (DIM * DIM,)), _PF_FLAT, axis=-1).prod(axis=-1) @ _PF_SIGNS
    return _scalar(np.sign(pf).astype(int))


def _pairing(pairs, signs) -> np.ndarray:
    """Vector action e_i -> s e_j (so e_j -> -s e_i) for each pair (i, j) and sign s."""
    m = np.zeros((DIM, DIM))
    for (i, j), s in zip(pairs, signs):
        m[j, i] = s
        m[i, j] = -s
    return m


#: signs of the vertex structures on the pairs (e1, e2), (e3, e4), (e5, e6)
_VERTEX_SIGNS = ((1.0, 1.0, 1.0), (1.0, -1.0, -1.0), (-1.0, 1.0, -1.0), (-1.0, -1.0, 1.0))


def _vertex_matrix(k: int) -> np.ndarray:
    return _pairing(((0, 1), (2, 3), (4, 5)), _VERTEX_SIGNS[k])


#: the reference structure ``vertex_acs(0)``, which random structures and
#: the search's restarts conjugate
_J_REF = _vertex_matrix(0)
#: orientation sign of the reference structure (measured: -1)
REFERENCE_ORIENTATION: int = orientation_sign(_J_REF)


def vertex_acs(k: int) -> ACS:
    """The four tetrahedron-vertex structures (vector actions e1 -> +-e2,
    e3 -> +-e4, e5 -> +-e6 with signs +++ / +-- / -+- / --+)."""
    if k not in (0, 1, 2, 3):
        raise ValueError("vertex index must be 0..3")
    return ACS(_vertex_matrix(k))


def hopf_acs() -> ACS:
    """Integrable reference structure: e1 -> e4, e2 -> e3, e5 -> e6."""
    return ACS(_pairing(((0, 3), (1, 2), (4, 5)), (1.0, 1.0, 1.0)))


def ank_reference_acs() -> ACS:
    """Factor-swapping structure with blocks A = C = 0, B = identity.

    Vector action e_i -> -e_{i+3}, e_{i+3} -> e_i; its covector action is
    the block matrix (0 -E; E 0).
    """
    return ACS(_pairing(((0, 3), (1, 4), (2, 5)), (-1.0, -1.0, -1.0)))


def fundamental_form(acs: ACS) -> TwoForm:
    """w(X, Y) = g(JX, Y); coefficient matrix is J^T."""
    return TwoForm.from_matrix(acs.matrix.mT)


def polar_contains(sigma: TwoForm, omega: TwoForm):
    """omega in Z and orthogonal to sigma in the form inner product.

    A bool per form of a stack ``omega``.
    """
    if sigma.norm() == 0.0:
        raise ZeroFormError("polar set of the zero form is undefined")
    in_z = _in_z(omega.matrix().mT)
    return _scalar(np.asarray(in_z & (np.abs(sigma.inner(omega)) <= DEFAULT_TOL)))


def acs_from_form(w: TwoForm) -> ACS:
    """Inverse of :func:`fundamental_form`; raises NotInZError when the
    induced endomorphism fails validation."""
    return ACS.validate(w.matrix().mT)


_UPPER = ([0, 0, 1], [1, 2, 2])  # entries (0, 1), (0, 2), (1, 2) of a 3x3 block


@dataclass(frozen=True)
class Blocks:
    """3x3 blocks of the vector action, J = (A B; -B^T C).

    A and C are antisymmetric with entry layout
    ``[[0, a1, a2], [-a1, 0, a3], [-a2, -a3, 0]]``; B is b1..b9 row-major.
    Blocks of a stack of structures are stacks (..., 3, 3), and ``a``,
    ``c`` and :meth:`reassemble` keep the leading axes.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray

    @property
    def a(self) -> np.ndarray:
        return self.A[..., _UPPER[0], _UPPER[1]]

    @property
    def c(self) -> np.ndarray:
        return self.C[..., _UPPER[0], _UPPER[1]]

    def reassemble(self) -> np.ndarray:
        return np.block([[self.A, self.B], [-self.B.mT, self.C]])


def blocks(acs: ACS) -> Blocks:
    """Block decomposition; batched over a stack of structures."""
    m = acs.matrix
    return Blocks(A=m[..., 0:3, 0:3].copy(), B=m[..., 0:3, 3:6].copy(), C=m[..., 3:6, 3:6].copy())


def constraint_residuals(b: Blocks) -> np.ndarray:
    """The 16 scalar conditions necessary for J^2 = -1.

    Six norm equations (rows of B paired with a-entries, columns of B
    paired with c-entries), the nine entries of AB + BC = 0, and the
    derived identity |a|^2 = |c|^2.  Returned as absolute residuals along
    the last axis; batched over stacked blocks.
    """
    a_sq = b.a * b.a
    c_sq = b.c * b.c
    cols = b.B.mT
    # row i of B pairs with the two a-entries of row i of A (likewise columns and C)
    norms = [
        a_sq[..., _UPPER[0]] + a_sq[..., _UPPER[1]] + np.vecdot(b.B, b.B) - 1,
        c_sq[..., _UPPER[0]] + c_sq[..., _UPPER[1]] + np.vecdot(cols, cols) - 1,
    ]
    ortho = (b.A @ b.B + b.B @ b.C).reshape(b.B.shape[:-2] + (9,))
    transfer = (a_sq[..., 0] + a_sq[..., 1] + a_sq[..., 2]
                - (c_sq[..., 0] + c_sq[..., 1] + c_sq[..., 2]))[..., None]
    return np.abs(np.concatenate(norms + [ortho, transfer], axis=-1))


def _rotations(normals: np.ndarray) -> np.ndarray:
    """Haar-uniform elements of SO(dim) from a stack (n, dim, dim) of standard normals."""
    q, r = np.linalg.qr(normals)
    q = q * np.sign(r.diagonal(axis1=-2, axis2=-1))[:, None, :]
    q[..., 0] *= np.sign(np.linalg.det(q))[:, None]  # det is +-1: flip column 0 where -1
    return q


def _haar_rotations(n: int, dim: int, rng) -> np.ndarray:
    """n Haar-uniform elements of SO(dim), drawn as n calls of :func:`haar_rotation` would;
    ``rng`` is anything with ``standard_normal(shape)``."""
    return _rotations(rng.standard_normal((n, dim, dim)))


def haar_rotation(dim: int, rng) -> np.ndarray:
    """Haar-uniform element of SO(dim) via QR with sign correction, from the
    normals of ``rng`` (a :class:`kernels._Normals` stream or a numpy ``Generator``)."""
    return _haar_rotations(1, dim, rng)[0]


def _seeded_rotations(seeds) -> np.ndarray:
    """``haar_rotation(6, _Normals(seed))`` per seed, with one QR over the stack.

    Each seed (an int or a sequence of ints, such as ``[seed, k]``) keys its
    own stream, so a rotation depends on its seed alone: ``random_acs``, the
    ``random`` sample set and the search's restarts all draw here.
    """
    return _rotations(np.stack([_Normals(s).standard_normal((DIM, DIM)) for s in seeds]))


def _random_structures(seeds) -> ACS:
    """The stack of :func:`random_acs` over ``seeds``, in seed order."""
    q = _seeded_rotations(seeds)
    return ACS.validate(q @ _J_REF @ q.mT)


def random_acs(seed) -> ACS:
    """Q J_ref Q^T with Q Haar-uniform in SO(6); deterministic per seed, a
    non-negative int or a sequence of them (a negative one raises ``ValueError``)."""
    return ACS(_random_structures([seed]).matrix[0])
