"""Two-way correspondence between Z and complex projective 3-space.

The bridge is the identification of the bivector space of C^4 with the
complexified dual algebra.  With (v^0..v^3) a unitary basis of C^4 and
bivectors ordered [01, 02, 03, 23, 31, 12]:

    2 v0^v1 = e1 + i e2      2 v2^v3 = e1 - i e2
    2 v0^v2 = e3 + i e4      2 v3^v1 = e3 - i e4
    2 v0^v3 = e5 + i e6      2 v1^v2 = e5 - i e6

A point [u] corresponds to the 3-space V_u = {u ^ v} of bivectors; its
image under the identification is the +i eigenspace of the covector
action (the transpose of the stored vector action) of the structure.
With w_a = identify(u ^ v^a) and |u| = 1, the fundamental form is
omega = 4 sum_a Im(conj(w_a) w_a^T) (summed term by term in
:func:`twistorz.zgeom.form_from_bivectors`).  Each w_a is linear in u,
so omega = F(u u*) is LINEAR in the projector: the so(6) = su(4) of the
Klein correspondence.  F kills the identity and scales the Frobenius
norm of traceless Hermitian matrices by sqrt(8), so on Z

    u u* = I/4 + F^T(omega) / 8,

and u is read off the dominant column.  F is a 36 x 32 matrix with
entries in {-1, 0, 1}, built once at import from the table, so exact
fixture points map to exact structures and back, zeros included.

Convention pinning: with the basis above and the phase normalization
below, the integrable reference structure maps to [1, 0, 0, -1] and the
factor-swapping reference to [1, 1, -1, 1]; the four vertex structures
map to the unit coordinate points.

A :class:`CP3Point` may hold a stack of points, coordinates (..., 4); its
methods, :func:`cp3_to_acs`, :func:`acs_to_cp3`, :func:`tetra_coords`,
:func:`wedge4` and the identification keep the leading axes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .acs import ACS
from .kernels import _require, _scalar

#: ordered bivector index pairs
BIVECTOR_PAIRS: tuple[tuple[int, int], ...] = ((0, 1), (0, 2), (0, 3), (2, 3), (3, 1), (1, 2))


@dataclass(frozen=True)
class CP3Point:
    """Homogeneous complex 4-tuple, or a stack (..., 4).

    Compare points with :meth:`projective_distance`, which is 0 for two
    representatives of one point: ``==`` compares the coordinate arrays
    (and raises ``ValueError`` unless both sides are one object), and a
    point is not hashable.

    Every point of a stack is checked, coordinates finite first, then not
    all zero; the error reports the first check that any point fails, at
    its first such point.
    """

    coords: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coords, dtype=complex).copy()
        if c.shape[-1:] != (4,):
            raise ValueError("expected 4 finite complex coordinates")
        _require(np.isfinite(c).all(axis=-1), ValueError, "expected 4 finite complex coordinates")
        _require(np.abs(c).max(axis=-1) > 0.0, ValueError, "homogeneous coordinates cannot all vanish")
        c.setflags(write=False)
        object.__setattr__(self, "coords", c)

    def scaled(self) -> np.ndarray:
        """Coordinates divided by their largest modulus (no overflow in norms)."""
        return _scaled(self.coords)

    def projective_distance(self, other: "CP3Point"):
        """Sine of the Fubini-Study angle: |p ^ q| for unit representatives.

        By the Lagrange identity |p ^ q|^2 = |p|^2 |q|^2 - |<p, q>|^2, but
        the bivector keeps its relative precision for nearby points, where
        the difference cancels; a point against itself gives exactly zero.
        A float per point of a stack.
        """
        p, q = (_unit(c) for c in (self.scaled(), other.scaled()))
        w = wedge4(p, q)
        return _scalar(np.sqrt(np.vecdot(w, w).real))


def _scaled(c: np.ndarray) -> np.ndarray:
    """Each row of coordinates (..., 4) divided by its largest modulus."""
    # complex division by the largest modulus m forms 1/m, which overflows
    # for subnormal m; an exact power-of-two prescale of both sides first
    # brings m to its mantissa in [1/2, 1)
    mantissa, exponent = np.frexp(np.abs(c).max(axis=-1, keepdims=True))
    return np.ldexp(np.ascontiguousarray(c).view(float), -exponent).view(complex) / mantissa


def _unit(c: np.ndarray) -> np.ndarray:
    """Each row of complex coordinates (..., n) divided by its Euclidean norm."""
    return c / np.sqrt(np.vecdot(c, c).real)[..., None]


def _normalized(c: np.ndarray) -> np.ndarray:
    """Phase-normalized rows of coordinates (..., 4): unit norm, the largest-modulus
    coordinate real positive (ties: lowest index)."""
    c = _unit(_scaled(c))
    mags = np.abs(c)
    # moduli within 1e-12 of the largest tie, so points equal up to rounding
    # pick the same pivot and the same phase
    pivot = _one_hot((mags > mags.max(axis=-1, keepdims=True) - 1e-12).argmax(axis=-1))
    return c * (mags[pivot] / c[pivot]).reshape(c.shape[:-1] + (1,))


def _one_hot(k: np.ndarray) -> np.ndarray:
    """Mask (..., 4) selecting coordinate k[...] of each row."""
    return k[..., None] == np.arange(4)


_FIRST, _SECOND = np.array(BIVECTOR_PAIRS).T


def wedge4(u, v) -> np.ndarray:
    """Bivector coefficients of u ^ v over BIVECTOR_PAIRS, along the last axis."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    return _product(u[..., _FIRST], v[..., _SECOND]) - _product(u[..., _SECOND], v[..., _FIRST])


def _product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x * y in real arithmetic, which commutes exactly; numpy's array loop for
    complex products may fuse a multiply-add, and then x * y != y * x in the
    last bit, so v ^ u would not be -(u ^ v) exactly."""
    out = np.empty(np.broadcast_shapes(x.shape, y.shape), dtype=complex)
    out.real = x.real * y.real - x.imag * y.imag
    out.imag = x.real * y.imag + x.imag * y.real
    return out


def identify(bivector) -> np.ndarray:
    """Complex covector matching a bivector under the identification table."""
    b01, b02, b03, b23, b31, b12 = np.moveaxis(np.asarray(bivector, dtype=complex), -1, 0)
    return 0.5 * np.stack(
        [
            b01 + b23,
            1j * (b01 - b23),
            b02 + b31,
            1j * (b02 - b31),
            b03 + b12,
            1j * (b03 - b12),
        ],
        axis=-1,
    )


def _correspondence_maps() -> tuple[np.ndarray, np.ndarray]:
    """F and F^T / 8 on row-major omega and the interleaved parts of P.

    With M_a[:, c] = identify(v^c ^ v^a), so that w_a = M_a u:
    omega_ij = sum_bc Im(T_ijbc P_cb),  T_ijbc = 4 sum_a conj(M_a[i, b]) M_a[j, c].
    """
    basis4 = np.eye(4, dtype=complex)
    m = np.array([[identify(wedge4(basis4[c], basis4[a])) for c in range(4)] for a in range(4)])
    t = 4.0 * np.einsum("abi,acj->ijcb", m.conj(), m).reshape(36, 16)
    forward = np.stack([t.imag, t.real], axis=-1).reshape(36, 32)
    return forward, forward.T / 8.0


_FORWARD, _INVERSE = _correspondence_maps()
_QUARTER_EYE = np.eye(4, dtype=complex) / 4.0


def _row_products(rows: np.ndarray, m: np.ndarray) -> np.ndarray:
    """rows (..., k) @ m as one vector-matrix product per row.

    A single matrix product of many rows rounds each row in a way that
    depends on how many there are (the BLAS blocking does); per row, a stack
    gives what each row alone gives.
    """
    return (rows[..., None, :] @ m)[..., 0, :]


def cp3_to_acs(point: CP3Point | np.ndarray) -> ACS:
    """Structure whose covector-action +i eigenspace is the image of V_u.

    Takes one point or a stack (coordinates (..., 4)) and validates every
    structure it builds.
    """
    if not isinstance(point, CP3Point):
        point = CP3Point(point)
    c = point.scaled()
    batch = c.shape[:-1]
    proj = c[..., :, None] * c[..., None, :].conj() / np.vecdot(c, c).real[..., None, None]
    omega = _row_products(proj.reshape(batch + (16,)).view(float), _FORWARD.T).reshape(batch + (6, 6))
    return ACS.validate(omega.mT)


def acs_to_cp3(acs: ACS) -> CP3Point:
    """Inverse of :func:`cp3_to_acs`; output is phase-normalized."""
    batch = acs.matrix.shape[:-2]
    parts = _row_products(acs.matrix.mT.reshape(batch + (36,)), _INVERSE.T)
    proj = _QUARTER_EYE + parts.view(complex).reshape(batch + (4, 4))
    # u u* has trace 1, so its largest diagonal entry is at least 1/4
    diagonal = proj.reshape(batch + (16,))[..., ::5].real
    pivot = _one_hot(diagonal.argmax(axis=-1))
    column = proj.mT[pivot].reshape(batch + (4,))  # column k as row k of the transpose
    return CP3Point(_normalized(column / np.sqrt(diagonal[pivot]).reshape(batch + (1,))))


def tetra_coords(point: CP3Point) -> np.ndarray:
    """Barycentric tetrahedron coordinates |u_a|^2 / sum |u_b|^2."""
    mags = np.abs(point.scaled()) ** 2
    return mags / mags.sum(axis=-1, keepdims=True)
