"""Extremization of the norm functional by conjugation ascent."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from twistorz.acs import ACS, _vertex_matrix, ank_reference_acs, blocks, haar_rotation, hopf_acs
from twistorz.nijenhuis import closed_form_norm, max_norm, nijenhuis_norm_sq
from twistorz import search
from twistorz.search import _grad, maximize, minimize

PLANES = [(p, r) for p in range(6) for r in range(p + 1, 6)]


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
    analytic = sign * _grad(q, j_ref)
    assert np.max(np.abs(analytic - fd)) <= 1e-7
    assert np.linalg.norm(fd) > 1e-2  # a generic point, not a critical one


def test_gradient_vanishes_at_hopf():
    grad = _grad(np.eye(6), hopf_acs().matrix)
    assert grad.shape == (15,)
    assert np.all(grad == 0.0)


def test_search_rotation_stays_orthogonal(monkeypatch):
    finals = []
    ascend = search._ascend

    def record(*args, **kwargs):
        finals.append(ascend(*args, **kwargs))
        return finals[-1]

    monkeypatch.setattr(search, "_ascend", record)
    report = maximize(seed=1, restarts=5)
    assert len(finals) == 5
    assert max(np.sqrt(f) for _, f, _, _ in finals) == pytest.approx(report.best_value, rel=1e-12)
    for q, _, _, _ in finals:
        assert np.linalg.norm(q.T @ q - np.eye(6)) <= 1e-12


def test_import_does_not_load_scipy():
    code = "import twistorz, sys; assert not any(m.startswith('scipy') for m in sys.modules)"
    # the child imports the package under test, however this run found it
    env = {**os.environ, "PYTHONPATH": str(Path(search.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


def test_maximize_from_the_maximum():
    report = maximize(seed=0, restarts=1, initial=ank_reference_acs())
    assert report.converged
    assert report.best_value == pytest.approx(max_norm(), rel=1e-12)


def test_minimize_from_the_minimum():
    report = minimize(seed=0, restarts=1, initial=hopf_acs())
    assert report.converged
    assert report.best_value < 1e-10


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


def test_trajectory_monotone_valid_and_law_abiding():
    values = []

    def audit(matrix, value):
        acs = ACS.validate(matrix)  # every iterate is a member of Z
        assert closed_form_norm(blocks(acs)) == pytest.approx(value, abs=1e-9)
        values.append(value)

    maximize(seed=3, restarts=1, max_iters=150, on_iterate=audit)
    assert len(values) > 2
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_minimize_trajectory_monotone():
    values = []
    minimize(seed=4, restarts=1, max_iters=150, on_iterate=lambda m, v: values.append(v))
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


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


def test_step_collapse_is_not_convergence(monkeypatch):
    # with no gradient test the only way out short of max_iters is a collapsed step
    monkeypatch.setattr(search, "GRAD_TOL", 0.0)
    report = maximize(seed=0, restarts=1)
    assert report.iterations < 500
    assert not report.converged


@pytest.mark.parametrize("runner", [maximize, minimize])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_every_restart_stops_on_the_gradient(monkeypatch, seed, runner):
    stops = []
    ascend = search._ascend

    def record(q, j_ref, *args, **kwargs):
        result = ascend(q, j_ref, *args, **kwargs)
        stops.append((result[3], float(np.linalg.norm(_grad(result[0], j_ref)))))
        return result

    monkeypatch.setattr(search, "_ascend", record)
    runner(seed=seed)
    assert len(stops) == 20
    for converged, grad_norm in stops:
        assert converged
        assert grad_norm < search.GRAD_TOL


def test_restarts_must_be_positive():
    with pytest.raises(ValueError):
        maximize(seed=0, restarts=0)


def test_converged_is_the_best_restarts_own_flag(monkeypatch, capsys):
    # at 14 iterations restart 0 holds the best value without having met
    # the gradient test, while restarts 3 and 4 did meet it
    outcomes = []
    ascend = search._ascend

    def record(*args, **kwargs):
        outcomes.append(ascend(*args, **kwargs))
        return outcomes[-1]

    monkeypatch.setattr(search, "_ascend", record)
    report = maximize(seed=6, restarts=5, max_iters=14)
    values = [f for _, f, _, _ in outcomes]
    best = values.index(max(values))
    assert not outcomes[best][3]
    assert any(converged for _, _, _, converged in outcomes)
    assert report.converged is False

    from twistorz.cli import main

    code = main(["optimize", "--seed", "6", "--restarts", "5", "--max-iters", "14", "--json"])
    assert code == 3
    assert '"converged": false' in capsys.readouterr().out
