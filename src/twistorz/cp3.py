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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .acs import ACS

#: ordered bivector index pairs
BIVECTOR_PAIRS: tuple[tuple[int, int], ...] = ((0, 1), (0, 2), (0, 3), (2, 3), (3, 1), (1, 2))


@dataclass(frozen=True)
class CP3Point:
    """Homogeneous complex 4-tuple; equality is projective."""

    coords: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coords, dtype=complex).copy()
        if c.shape != (4,) or not np.isfinite(c).all():
            raise ValueError("expected 4 finite complex coordinates")
        if np.abs(c).max() == 0.0:
            raise ValueError("homogeneous coordinates cannot all vanish")
        c.setflags(write=False)
        object.__setattr__(self, "coords", c)

    def scaled(self) -> np.ndarray:
        """Coordinates divided by their largest modulus (no overflow in norms)."""
        return _scaled(self.coords)

    def normalized(self) -> "CP3Point":
        """Unit norm, largest-modulus coordinate real positive (ties: lowest index)."""
        return CP3Point(_normalized(self.coords))

    def projective_residual(self, other: "CP3Point") -> float:
        """1 - |<p, q>| / (|p| |q|); zero exactly on projective equality.

        The ratio is formed from squared moduli, which round alike for a
        point against itself, and is clamped at 1 so the result is never
        negative.
        """
        p = self.scaled()
        q = other.scaled()
        ratio = abs(np.vdot(p, q)) ** 2 / (np.vdot(p, p).real * np.vdot(q, q).real)
        return float(1.0 - np.sqrt(min(ratio, 1.0)))

    def projective_distance(self, other: "CP3Point") -> float:
        """Sine of the Fubini-Study angle: |p ^ q| for unit representatives.

        By the Lagrange identity |p ^ q|^2 = |p|^2 |q|^2 - |<p, q>|^2, but
        the bivector keeps its relative precision for nearby points, where
        the difference cancels; a point against itself gives exactly zero.
        """
        p, q = (c / np.linalg.norm(c) for c in (self.scaled(), other.scaled()))
        return float(np.linalg.norm(wedge4(p, q)))


def _scaled(c: np.ndarray) -> np.ndarray:
    """Each row of coordinates (..., 4) divided by its largest modulus."""
    # complex division by the largest modulus m forms 1/m, which overflows
    # for subnormal m; an exact power-of-two prescale of both sides first
    # brings m to its mantissa in [1/2, 1)
    mantissa, exponent = np.frexp(np.abs(c).max(axis=-1, keepdims=True))
    return np.ldexp(np.ascontiguousarray(c).view(float), -exponent).view(complex) / mantissa


def _normalized(c: np.ndarray) -> np.ndarray:
    """Phase-normalized unit rows of coordinates (..., 4); see :meth:`CP3Point.normalized`."""
    c = _scaled(c)
    c = c / np.sqrt(np.vecdot(c, c).real)[..., None]
    mags = np.abs(c)
    pivot = _one_hot((mags > mags.max(axis=-1, keepdims=True) - 1e-12).argmax(axis=-1))
    return c * (mags[pivot] / c[pivot]).reshape(c.shape[:-1] + (1,))


def _one_hot(k: np.ndarray) -> np.ndarray:
    """Mask (..., 4) selecting coordinate k[...] of each row."""
    return k[..., None] == np.arange(4)


def wedge4(u, v) -> np.ndarray:
    """Bivector coefficients of u ^ v over BIVECTOR_PAIRS."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    return np.array([u[a] * v[b] - u[b] * v[a] for a, b in BIVECTOR_PAIRS])


def identify(bivector) -> np.ndarray:
    """Complex covector matching a bivector under the identification table."""
    b01, b02, b03, b23, b31, b12 = np.asarray(bivector, dtype=complex)
    return 0.5 * np.array(
        [
            b01 + b23,
            1j * (b01 - b23),
            b02 + b31,
            1j * (b02 - b31),
            b03 + b12,
            1j * (b03 - b12),
        ]
    )


def identify_inverse(w) -> np.ndarray:
    """Bivector coefficients matching a complex covector."""
    w1, w2, w3, w4, w5, w6 = np.asarray(w, dtype=complex)
    return np.array(
        [
            w1 - 1j * w2,
            w3 - 1j * w4,
            w5 - 1j * w6,
            w1 + 1j * w2,
            w3 + 1j * w4,
            w5 + 1j * w6,
        ]
    )


def _correspondence_maps(identify_fn=identify) -> tuple[np.ndarray, np.ndarray]:
    """F and F^T / 8 on row-major omega and the interleaved parts of P.

    With M_a[:, c] = identify_fn(v^c ^ v^a), so that w_a = M_a u:
    omega_ij = sum_bc Im(T_ijbc P_cb),  T_ijbc = 4 sum_a conj(M_a[i, b]) M_a[j, c].
    """
    basis4 = np.eye(4, dtype=complex)
    m = np.array([[identify_fn(wedge4(basis4[c], basis4[a])) for c in range(4)] for a in range(4)])
    t = 4.0 * np.einsum("abi,acj->ijcb", m.conj(), m).reshape(36, 16)
    forward = np.stack([t.imag, t.real], axis=-1).reshape(36, 32)
    return forward, forward.T / 8.0


_FORWARD, _INVERSE = _correspondence_maps()
_QUARTER_EYE = np.eye(4, dtype=complex) / 4.0


def cp3_to_acs(point: CP3Point | np.ndarray) -> ACS:
    """Structure whose covector-action +i eigenspace is the image of V_u."""
    if not isinstance(point, CP3Point):
        point = CP3Point(np.asarray(point, dtype=complex))
    c = point.scaled()
    proj = np.outer(c, c.conj()) / np.vdot(c, c).real
    omega = (_FORWARD @ proj.view(float).ravel()).reshape(6, 6)
    return ACS.validate(omega.T)


def acs_to_cp3(acs: ACS) -> CP3Point:
    """Inverse of :func:`cp3_to_acs`; output is phase-normalized."""
    return CP3Point(_point_coords(acs.matrix))


def _point_coords(matrix: np.ndarray) -> np.ndarray:
    """Phase-normalized coordinates (..., 4) of structures (..., 6, 6); see :func:`acs_to_cp3`."""
    batch = matrix.shape[:-2]
    parts = matrix.mT.reshape(batch + (36,)) @ _INVERSE.T
    proj = _QUARTER_EYE + parts.view(complex).reshape(batch + (4, 4))
    # u u* has trace 1, so its largest diagonal entry is at least 1/4
    diagonal = proj.reshape(batch + (16,))[..., ::5].real
    pivot = _one_hot(diagonal.argmax(axis=-1))
    column = proj.mT[pivot].reshape(batch + (4,))  # column k as row k of the transpose
    return _normalized(column / np.sqrt(diagonal[pivot]).reshape(batch + (1,)))


def tetra_coords(point: CP3Point) -> np.ndarray:
    """Barycentric tetrahedron coordinates |u_a|^2 / sum |u_b|^2."""
    return _tetra_coords(point.coords)


def _tetra_coords(coords: np.ndarray) -> np.ndarray:
    """:func:`tetra_coords` of each row of coordinates (..., 4)."""
    mags = np.abs(_scaled(coords)) ** 2
    return mags / mags.sum(axis=-1, keepdims=True)
