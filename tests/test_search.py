"""Extremization of the norm functional by conjugation ascent."""

import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from twistorz.acs import (ACS, _haar_rotations, _vertex_matrix, ank_reference_acs, blocks, haar_rotation, hopf_acs,
                          random_acs)
from twistorz.nijenhuis import closed_form_norm, max_norm, nijenhuis_norm, nijenhuis_norm_sq
from twistorz import kernels, search
from twistorz.search import _gradient, maximize, minimize

PLANES = [(p, r) for p in range(6) for r in range(p + 1, 6)]
#: where the skew gradient D holds the 15 plane derivatives, p < r in row-major order
UPPER = np.triu_indices(6, 1)
#: generators E_pr = e_p e_r^T - e_r e_p^T, p < r in row-major order
GENERATORS = np.stack([np.outer(np.eye(6)[p], np.eye(6)[r]) - np.outer(np.eye(6)[r], np.eye(6)[p])
                       for p, r in PLANES])


def _grad(q, j_ref):
    """Second route to the gradient of |N|^2 along the 15 plane rotations Q exp(t E_pr).

    N is quadratic in J, so dN[D] = (N(J + D) - N(J - D)) / 2 exactly, by
    polarization: the derivative of the tensor along each generator, from
    31 full tensors and no adjoint algebra.
    """
    j = q @ j_ref @ q.T
    d = q @ (GENERATORS @ j_ref - j_ref @ GENERATORS) @ q.T  # dJ along each E_pr
    n = kernels.nijenhuis_components(np.concatenate([j[None], j + d, j - d]))
    plus, minus = np.split(n[1:], 2)
    # d|N|^2[D] = 2 <N, dN[D]> = <N, N(J + D) - N(J - D)>
    return np.sum(n[0] * (plus - minus), axis=(-3, -2, -1))


def _plane_rotation(p, r, h):
    """exp(h E) with E = e_p e_r^T - e_r e_p^T."""
    rot = np.eye(6)
    rot[p, p] = rot[r, r] = np.cos(h)
    rot[p, r] = np.sin(h)
    rot[r, p] = -np.sin(h)
    return rot


def _norm_sq_at(q, j_ref):
    return nijenhuis_norm_sq(ACS(q @ j_ref @ q.T))


@pytest.mark.parametrize("sign", [+1.0, -1.0])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gradient_matches_central_differences(seed, sign):
    q = haar_rotation(6, np.random.default_rng([seed, 77]))
    j_ref = _vertex_matrix(0)
    h = 1e-5
    fd = np.array([
        (sign * _norm_sq_at(q @ _plane_rotation(p, r, h), j_ref)
         - sign * _norm_sq_at(q @ _plane_rotation(p, r, -h), j_ref)) / (2.0 * h)
        for p, r in PLANES
    ])
    analytic = sign * _gradient(q, j_ref)[..., UPPER[0], UPPER[1]]
    assert np.max(np.abs(analytic - fd)) <= 1e-7
    assert np.linalg.norm(fd) > 1e-2  # a generic point, not a critical one


@pytest.mark.parametrize("reference", [hopf_acs, ank_reference_acs], ids=["hopf", "ank"])
def test_gradient_vanishes_at_references(reference):
    # the floor (integrable) and the maximum (ANK) of |N|^2 are critical points
    grad = _gradient(np.eye(6), reference().matrix)
    assert grad.shape == (6, 6)
    assert np.all(grad == 0.0)


@pytest.mark.parametrize("sign", [+1.0, -1.0])
def test_adjoint_gradient_matches_polarization(sign):
    # the shipped adjoint against the polarization route, point by point and on a stack
    q = np.stack([haar_rotation(6, np.random.default_rng([seed, 78])) for seed in range(6)])
    j_ref = np.stack([_vertex_matrix(0)] * 3 + [ank_reference_acs().matrix] * 3)
    oracle = np.stack([sign * _grad(qi, ji) for qi, ji in zip(q, j_ref)])
    stacked = sign * _gradient(q, j_ref)[..., UPPER[0], UPPER[1]]
    assert stacked.shape == (6, 15)
    assert np.max(np.abs(stacked - oracle)) <= 1e-12
    for qi, ji, expected in zip(q, j_ref, oracle):
        assert np.max(np.abs(sign * _gradient(qi, ji)[..., UPPER[0], UPPER[1]] - expected)) <= 1e-12
    assert np.min(np.linalg.norm(oracle, axis=-1)) > 1e-2  # generic points


def test_gradient_law_holds_in_floats():
    # |grad F|^2 = |D|^2 / 2 = 8 F (48 - F), F = |N|^2, on the shipped route at 300 Haar
    # structures (values up to 4608; measured 2.1e-11), so F has no critical value but 0 and
    # 48.  The control 8 F (47 - F) misses by 8 F
    q = _haar_rotations(300, 6, np.random.default_rng(79))
    j_ref = _vertex_matrix(0)
    f = kernels.conjugated_norm_sq(q, j_ref)
    grad_sq = np.sum(_gradient(q, j_ref) ** 2, axis=(-2, -1)) / 2.0
    assert np.max(np.abs(grad_sq - 8.0 * f * (48.0 - f))) <= 1e-9
    assert np.max(np.abs(grad_sq - 8.0 * f * (47.0 - f))) > 1.0


def test_search_rotation_stays_orthogonal():
    report = maximize(seed=1, restarts=5)
    assert [stop.restart for stop in report.stops] == list(range(5))
    assert max(np.sqrt(stop.value) for stop in report.stops) == pytest.approx(report.best_value, rel=1e-12)
    for stop in report.stops:
        q = stop.rotation
        assert np.linalg.norm(q.T @ q - np.eye(6)) <= 1e-14


def test_import_does_not_load_scipy():
    code = "import twistorz, sys; assert not any(m.startswith('scipy') for m in sys.modules)"
    # the child imports the package under test, however this run found it
    env = {**os.environ, "PYTHONPATH": str(Path(search.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


def test_maximize_random_restarts():
    report = maximize(seed=1, restarts=5, max_iters=400)
    ratio = report.best_value / max_norm()
    assert 1.0 - 1e-4 <= ratio <= 1.0 + 1e-9
    b = blocks(report.best_acs)
    assert float(np.linalg.norm(b.A)) < 1e-3
    assert float(np.linalg.norm(b.C)) < 1e-3


def test_minimize_random_restarts():
    report = minimize(seed=2, restarts=5, max_iters=400)
    assert report.best_value < 1e-6
    b = blocks(report.best_acs)
    assert abs(float(np.linalg.norm(b.c)) - 1.0) < 1e-3


def _iterates(monkeypatch, runner, seed):
    """The iterates of a one-restart search, each validated as a member of Z.

    Read where the search takes its gradient: once per lockstep iteration,
    at the current iterate.
    """
    iterates = []

    def audit(q, j_ref):
        (qi,) = q  # the one restart
        iterates.append(ACS.validate(qi @ j_ref @ qi.T))
        return gradient(q, j_ref)

    gradient = search._gradient
    monkeypatch.setattr(search, "_gradient", audit)
    runner(seed=seed, restarts=1, max_iters=150)
    assert len(iterates) > 2
    return iterates


def test_trajectory_monotone_valid_and_law_abiding(monkeypatch):
    values = []
    for acs in _iterates(monkeypatch, maximize, seed=3):
        value = nijenhuis_norm(acs)
        assert closed_form_norm(blocks(acs)) == pytest.approx(value, abs=1e-9)
        values.append(value)
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_minimize_trajectory_monotone(monkeypatch):
    values = [nijenhuis_norm(acs) for acs in _iterates(monkeypatch, minimize, seed=4)]
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("runner", [maximize, minimize])
def test_restarts_start_from_random_acs(runner):
    # restart k starts where random_acs([seed, k]) is: one seeded draw for
    # both (validate projects the conjugate onto exact antisymmetry)
    seed = 8
    report = runner(seed=seed, restarts=4, max_iters=0)
    for k, stop in enumerate(report.stops):
        start = ACS.validate(stop.rotation @ _vertex_matrix(0) @ stop.rotation.T)
        assert np.array_equal(start.matrix, random_acs([seed, k]).matrix)


def test_search_takes_no_initial_or_callback():
    for name, obj in vars(search).items():
        if not name.startswith("_") and callable(obj):
            assert not {"initial", "on_iterate"} & set(inspect.signature(obj).parameters), name


def test_deterministic_per_seed():
    a = maximize(seed=9, restarts=2, max_iters=100)
    b = maximize(seed=9, restarts=2, max_iters=100)
    assert a.best_value == b.best_value
    assert np.array_equal(a.best_acs.matrix, b.best_acs.matrix)
    assert a.iterations == b.iterations


def test_unconverged_report():
    report = maximize(seed=5, restarts=1, max_iters=2)
    assert not report.converged
    assert report.iterations == 2
    assert report.stops[0].reason == "max_iters"


def test_step_collapse_is_not_convergence(monkeypatch):
    # with no gradient test the only way out short of max_iters is a collapsed step
    monkeypatch.setattr(search, "GRAD_TOL", 0.0)
    report = maximize(seed=0, restarts=1)
    assert report.iterations < 500
    assert not report.converged
    assert report.stops[0].reason == "stalled"


@pytest.mark.parametrize("runner", [maximize, minimize])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_every_restart_stops_on_the_gradient(seed, runner):
    report = runner(seed=seed)
    assert len(report.stops) == 20
    for stop in report.stops:
        assert stop.reason == "gradient"
        # the polarization route confirms the stop at the final rotation
        assert float(np.linalg.norm(_grad(stop.rotation, _vertex_matrix(0)))) < search.GRAD_TOL
    assert report.iterations == sum(stop.iterations for stop in report.stops)


def test_kernel_calls_per_lockstep_iteration(monkeypatch):
    calls = {}

    def counted(name):
        kernel = getattr(kernels, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return kernel(*args, **kwargs)

        monkeypatch.setattr(kernels, name, wrapper)

    for name in ("nijenhuis_components", "nijenhuis_norm_sq", "conjugated_norm_sq"):
        counted(name)
    report = maximize(seed=0)
    lockstep_iterations = max(stop.iterations for stop in report.stops)
    assert 0 < calls["nijenhuis_components"] <= lockstep_iterations
    assert sum(calls.values()) < 400


def test_restarts_must_be_positive():
    with pytest.raises(ValueError):
        maximize(seed=0, restarts=0)


def test_converged_is_the_best_restarts_own_flag(capsys):
    # at 14 iterations the restart with the best value has often not met the gradient
    # test while another one has; converged is the best restart's own flag at every seed
    premise = []
    for seed in range(200):
        report = maximize(seed=seed, restarts=5, max_iters=14)
        values = [stop.value for stop in report.stops]
        best = report.stops[values.index(max(values))]
        assert report.converged == (best.reason == "gradient"), seed
        if best.reason != "gradient" and any(stop.reason == "gradient" for stop in report.stops):
            premise.append(seed)
    # 53 seeds of 0-199 (measured); at some the best leads a converged restart by only 7.1e-14
    # in |N|^2, so a summation order may move single seeds, but not most of them
    assert len(premise) >= 10

    from twistorz.cli import main

    code = main(["optimize", "--seed", str(premise[0]), "--restarts", "5", "--max-iters", "14", "--json"])
    assert code == 3
    assert '"converged": false' in capsys.readouterr().out


def test_rotations_do_not_drift_into_a_rounding_ascent(capsys):
    # without re-orthonormalization restart 3 of this seed drifts off SO(6)
    # by 2.2e-13, "improves" |N|^2 past 48 by rounding (1.5e-11) and runs to
    # max_iters; with it, that restart stops on the gradient after 11 iterations
    report = maximize(seed=8002)
    assert [stop.reason for stop in report.stops] == ["gradient"] * 20
    assert report.best_value <= max_norm() * (1.0 + 1e-12)

    from twistorz.cli import main

    assert main(["optimize", "--json", "--direction", "max", "--seed", "8002"]) == 0
    assert '"converged": true' in capsys.readouterr().out
