"""The seeded stream of standard normals, ``kernels._Normals``: its key, its
independence of the interpreter's hash seed, its distribution, and the numpy
Generators that the samplers still accept in its place."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import twistorz
from twistorz import zgeom
from twistorz.acs import haar_rotation, random_acs
from twistorz.kernels import _Normals


@pytest.mark.parametrize("key", [-1, [0, -1], [-3, 101]])
def test_a_negative_key_raises(key):
    with pytest.raises(ValueError, match="^expected non-negative integer$"):
        _Normals(key)
    with pytest.raises(ValueError, match="^expected non-negative integer$"):
        random_acs(key)


def test_a_numpy_integer_keys_the_stream_of_its_int():
    for key, same in ((np.int64(5), 5), ([np.int64(5), np.uint8(101)], [5, 101]), (5, [5])):
        assert np.array_equal(_Normals(key).standard_normal(40), _Normals(same).standard_normal(40))
    assert np.array_equal(random_acs(np.int64(5)).matrix, random_acs(5).matrix)
    assert not np.array_equal(_Normals([5, 101]).standard_normal(8), _Normals([51, 1]).standard_normal(8))


@pytest.mark.parametrize("sizes", [(5, 3, 0, (2, 2), 1), (1,) * 9, (7, (2, 3))])
def test_draws_split_anywhere_read_one_stream(sizes):
    split = _Normals([3, 17])
    parts = [split.standard_normal(s).ravel() for s in sizes]
    whole = _Normals([3, 17]).standard_normal(sum(p.size for p in parts) + 1)
    np.testing.assert_array_equal(np.concatenate(parts), whole[:-1])
    assert split.standard_normal(1)[0] == whole[-1]


def test_output_does_not_depend_on_the_hash_seed():
    env = {**os.environ, "PYTHONPATH": str(Path(twistorz.__file__).resolve().parents[1])}
    calls = [["sample", "--set", "random", "--count", "4"], ["sample", "--set", "polar", "--count", "4", "--seed", "2"],
             ["verify", "--json", "--seed", "1"]]
    for argv in calls:
        outs = [subprocess.run([sys.executable, "-m", "twistorz.cli", *argv], capture_output=True, check=True,
                               env={**env, "PYTHONHASHSEED": h}).stdout for h in ("0", "1")]
        assert outs[0] == outs[1] and outs[0]


def test_normals_meet_fixed_moment_and_ks_bounds():
    z = _Normals([0, 1]).standard_normal(200_000)
    assert np.isfinite(z).all()
    n = z.size
    # standard errors: mean 1/sqrt(n) = 2.2e-3, variance sqrt(2/n) = 3.2e-3, kurtosis sqrt(24/n) = 1.1e-2
    assert abs(z.mean()) < 0.01
    assert abs(z.var() - 1.0) < 0.015
    assert abs(np.mean(z**4) / z.var() ** 2 - 3.0) < 0.06
    # Kolmogorov-Smirnov against Phi(x) = (1 + erf(x / sqrt 2)) / 2; 1.95 / sqrt(n) is its 0.1 % point
    phi = 0.5 * (1.0 + np.frompyfunc(math.erf, 1, 1)(np.sort(z) / math.sqrt(2.0)).astype(float))
    steps = np.arange(n + 1) / n
    assert max(np.max(steps[1:] - phi), np.max(phi - steps[:-1])) < 1.95 / math.sqrt(n)


class _Replay:
    """A source of given normals, read only through ``standard_normal(shape)``."""

    def __init__(self, normals):
        self.normals = normals

    def standard_normal(self, shape):
        return self.normals.reshape(shape)


def test_samplers_still_accept_a_numpy_generator():
    normals = np.random.default_rng(4).standard_normal(36)
    q = haar_rotation(6, np.random.default_rng(4))
    np.testing.assert_array_equal(q, haar_rotation(6, _Replay(normals)))
    assert np.allclose(q.T @ q, np.eye(6), atol=1e-12) and np.linalg.det(q) == pytest.approx(1.0)
    point = zgeom.sample_polar_point(np.random.default_rng(4), (4,))
    np.testing.assert_array_equal(point.coords, zgeom.sample_polar_point(_Replay(normals[:32]), (4,)).coords)
