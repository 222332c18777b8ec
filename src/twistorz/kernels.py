"""Nijenhuis tensor kernels of 6x6 structure matrices, in numpy.

Every kernel takes one matrix or a stack (..., 6, 6) and returns one value
per matrix; a single 6x6 input gives a Python float where a scalar is
returned.  The public functions never call each other through their
public names, so patching or wrapping one of them leaves the others
unchanged.  The private stack helpers beside them (chunk sizes, the
seeded stream of normals, the scalar of a 0-d result, the first failing
member) serve every numerical module.
"""

from __future__ import annotations

import math
import operator
import random

import numpy as np

from .algebra import STRUCTURE_CONSTANTS as _CT

#: name of the kernel implementation, recorded by reports and benchmarks
BACKEND = "pure"

#: structures per stacked call on the batched paths (verify, sample).  On a
#: 2-CPU host, in process (medians over seeds 1-5), chunks of 20 -> 100 took
#: constraint_system 16.5 -> 7.5 ms, ank_circle_inversion 6.2 -> 2.0 ms and
#: all 16 checks 96.9 -> 70.2 ms; a verify process peaked 38.3 -> 38.8 MB
_CHUNK = 100


def _chunk_sizes(total: int):
    """Sizes of consecutive chunks of at most ``_CHUNK`` covering ``total``."""
    for start in range(0, total, _CHUNK):
        yield min(_CHUNK, total - start)


class _Normals:
    """The seeded stream of standard normals that every sample of the package reads.

    ``key`` is a non-negative integer or a sequence of them, such as
    ``[seed, tag]``.  Its canonical text (``"5,101"``; ``5``, ``[5]`` and
    ``np.int64(5)`` read ``"5"``) seeds the stdlib's Mersenne Twister,
    which hashes text with SHA-512, so a key gives one stream on every
    platform and under every ``PYTHONHASHSEED``.  :meth:`standard_normal`
    reads the generator's bytes as little-endian 53-bit uniforms u in
    [0, 1) and turns each pair into two normals by Box-Muller, with
    ``log1p(-u)`` so that log(0) never occurs.  A normal left over from a
    pair opens the next call, so draws of k and m normals read what one
    draw of k + m does.  numpy's ``Generator`` has the same method, and a
    sampler that takes an ``rng`` takes either; the package's own draws
    never import ``numpy.random``, which costs a CLI process about 8 ms
    and 5.5 MB of peak RSS.
    """

    def __init__(self, key):
        try:
            parts = [operator.index(key)]
        except TypeError:
            parts = [operator.index(k) for k in key]
        if any(p < 0 for p in parts):
            raise ValueError("expected non-negative integer")
        self._bits = random.Random(",".join(map(str, parts)))
        self._spare = np.empty(0)

    def standard_normal(self, shape) -> np.ndarray:
        """An array of ``shape`` (an int or a tuple) of standard normals, the next in the stream."""
        count = math.prod(shape) if isinstance(shape, tuple) else operator.index(shape)
        pairs = (count - self._spare.size + 1) // 2
        u = (np.frombuffer(self._bits.randbytes(16 * pairs), dtype="<u8") >> 11).reshape(pairs, 2) * 2.0**-53
        # pair (u1, u2) gives r (cos t, sin t), r = sqrt(-2 log(1 - u1)), t = 2 pi u2
        angle = (2.0 * math.pi) * u[:, 1]
        z = np.empty((pairs, 2))
        np.cos(angle, out=z[:, 0])
        np.sin(angle, out=z[:, 1])
        z *= np.sqrt(-2.0 * np.log1p(-u[:, :1]))
        z = np.concatenate([self._spare, z.ravel()])
        self._spare = z[count:].copy()
        return z[:count].reshape(shape)


def _scalar(x):
    """The Python scalar (float, int, bool) of a 0-d numpy result, an array as it is."""
    return x.item() if np.ndim(x) == 0 else x


def _first_failure(*failed):
    """(check, member) of the first member of a stack that fails a check.

    Each argument is a bool array over the stack's members (0-d for one
    member), one per check in check order.  Members are taken in row-major
    order; ``check`` is the position of the first check that member fails
    and ``member`` its index tuple (``()`` for a single member).  None when
    every member passes.
    """
    anything = failed[0]
    for f in failed[1:]:
        anything = anything | f
    if not np.asarray(anything).any():
        return None
    failed = np.stack(np.broadcast_arrays(*failed))
    any_failed = failed.any(axis=0)
    member = tuple(int(i) for i in np.unravel_index(any_failed.argmax(), any_failed.shape))
    return int(failed[(slice(None),) + member].argmax()), member


def nijenhuis_components(j: np.ndarray) -> np.ndarray:
    """N[..., k, i, j] for N(X, Y) = [JX, JY] - [X, Y] - J[X, JY] - J[JX, Y]."""
    j = np.asarray(j, dtype=float)
    cj = _CT @ j[..., None, :, :]  # cj[k] = C_k J, C_k[p, q] = c[k, p, q]
    # [JX, JY]: t1[k] = J^T C_k J
    t1 = j.mT[..., None, :, :] @ cj
    # J[X, JY]: t3[k, i, j] = J[k, m] (C_m J)[i, j].  C_m is antisymmetric, so
    # the J[JX, Y] term is -t3[k, j, i]: the two terms together have the
    # antisymmetric part of 2 t3, and [X, Y] = C is antisymmetric already
    t3 = (j @ cj.reshape(j.shape[:-2] + (6, 36))).reshape(cj.shape)
    n = t1 - 2.0 * t3
    # exact antisymmetry in (i, j)
    return 0.5 * (n - n.mT) - _CT


def nijenhuis_norm_sq(j: np.ndarray):
    """Squared Frobenius norm of the Nijenhuis tensor of J, per matrix."""
    n = _components(j)
    return _scalar(np.sum(n * n, axis=(-3, -2, -1)))


def conjugated_norm_sq(q: np.ndarray, j_ref: np.ndarray):
    """Nijenhuis squared norm of Q J_ref Q^T, per rotation Q."""
    q = np.asarray(q, dtype=float)
    return _norm_sq(q @ j_ref @ q.mT)


# private names bound to the original functions: replacing a public name
# (as a call counter does) leaves the calls between kernels untouched
_components = nijenhuis_components
_norm_sq = nijenhuis_norm_sq
