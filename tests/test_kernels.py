"""Nijenhuis kernels against the term-by-term oracle."""

import numpy as np
import pytest

from conftest import oracle_nijenhuis, oracle_nijenhuis_norm_sq
from twistorz import kernels
from twistorz.acs import haar_rotation, random_acs, vertex_acs


def test_components_match_oracle():
    for seed in range(10):
        j = random_acs(seed).matrix
        expected = oracle_nijenhuis(j)
        got = kernels.nijenhuis_components(j)
        assert np.max(np.abs(got - expected)) < 1e-12


def test_norm_matches_oracle():
    for seed in range(10):
        j = random_acs(seed).matrix
        assert abs(kernels.nijenhuis_norm_sq(j) - oracle_nijenhuis_norm_sq(j)) < 1e-10


def test_conjugated_norm(rng):
    j_ref = vertex_acs(0).matrix
    for _ in range(10):
        q = haar_rotation(6, rng)
        direct = kernels.nijenhuis_norm_sq(q @ j_ref @ q.T)
        assert abs(kernels.conjugated_norm_sq(q, j_ref) - direct) < 1e-10


def test_selected_backend_exposed():
    assert kernels.BACKEND == "pure"
    j = vertex_acs(0).matrix
    assert kernels.nijenhuis_norm_sq(j) == pytest.approx(0.0, abs=1e-12)


def test_public_kernels_do_not_call_each_other(monkeypatch):
    """Wrapping one public kernel must not change what the others compute or call."""
    calls = []
    for name in ("nijenhuis_components", "nijenhuis_norm_sq", "conjugated_norm_sq"):
        original = getattr(kernels, name)
        monkeypatch.setattr(kernels, name,
                            lambda *a, _f=original, _n=name: calls.append(_n) or _f(*a))
    j_ref = vertex_acs(0).matrix
    kernels.conjugated_norm_sq(np.eye(6), j_ref)
    kernels.nijenhuis_norm_sq(j_ref)
    assert calls == ["conjugated_norm_sq", "nijenhuis_norm_sq"]
