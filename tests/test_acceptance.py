"""Acceptance gate: every criterion at its stated tolerance and budget.

Each test prints one PASS line on success (pytest -s shows them; a failing
criterion fails its test and pytest reports it as the FAIL line).
"""

import json
import time

import numpy as np
import pytest

from conftest import random_rotation3, unit3
from twistorz.acs import (
    ACS,
    ank_reference_acs,
    blocks,
    constraint_residuals,
    hopf_acs,
    random_acs,
    vertex_acs,
)
from twistorz.cli import main
from twistorz.cp3 import CP3Point, acs_to_cp3, cp3_to_acs
from twistorz.nearly_kaehler import nabla_omega, nk_defect
from twistorz.nijenhuis import (
    calibration_constant,
    cofactor_checks,
    integrable_acs,
    max_norm,
    nijenhuis_norm,
    nijenhuis_norm_sq,
)
from twistorz.search import maximize
from twistorz.zgeom import (
    PolarPairParams,
    ank_circle_acs,
    ank_circle_params,
    circle_closed_form,
    circle_form,
    circle_point,
    edge01_closed_form,
    edge01_form,
    invert_ank_circle,
    printed_circle_form,
)

KAPPA = 48.0  # measured by the pre-build brute-force expansion


def _stamp(name, detail=""):
    print(f"PASS {name}" + (f": {detail}" if detail else ""))


def test_criterion_1_proportionality_law():
    start = time.perf_counter()
    kappa = calibration_constant()
    assert kappa == pytest.approx(KAPPA, abs=1e-12)
    worst = 0.0
    for seed in range(1000):
        acs = random_acs(seed)
        c = blocks(acs).c
        worst = max(worst, abs(nijenhuis_norm_sq(acs) / kappa - (1.0 - float(c @ c))))
    elapsed = time.perf_counter() - start
    assert worst < 1e-9
    assert elapsed < 5.0
    _stamp(
        "criterion 1 (norm proportionality)",
        f"worst residual {worst:.3e} over 1000 samples in {elapsed:.2f}s; "
        f"sqrt(kappa)={np.sqrt(kappa):.6f} vs literature 8*sqrt(3)={8*np.sqrt(3):.6f}",
    )


def test_criterion_2_maximum_search():
    start = time.perf_counter()
    report = maximize(seed=1, restarts=20, max_iters=400)
    elapsed = time.perf_counter() - start
    ratio = report.best_value / max_norm()
    b = blocks(report.best_acs)
    assert ratio >= 1.0 - 1e-4
    assert float(np.linalg.norm(b.A)) < 1e-3
    assert float(np.linalg.norm(b.C)) < 1e-3
    assert elapsed < 30.0
    _stamp(
        "criterion 2 (maximum attained)",
        f"ratio {ratio:.12f}, blocks {max(np.linalg.norm(b.A), np.linalg.norm(b.C)):.2e}, "
        f"{elapsed:.2f}s",
    )


def test_criterion_3_integrable_set():
    start = time.perf_counter()
    rng = np.random.default_rng(33)
    worst_norm = 0.0
    worst_c = 0.0
    for _ in range(200):
        acs = integrable_acs(random_rotation3(rng), random_rotation3(rng))
        worst_norm = max(worst_norm, nijenhuis_norm(acs))
        worst_c = max(worst_c, abs(float(np.linalg.norm(blocks(acs).c)) - 1.0))
    elapsed = time.perf_counter() - start
    assert worst_norm < 1e-9
    assert worst_c < 1e-9
    assert elapsed < 2.0
    _stamp("criterion 3 (integrable set)", f"|N| <= {worst_norm:.3e}, ||c|-1| <= {worst_c:.3e}")


def test_criterion_4_projective_fixtures():
    hopf_target = CP3Point(np.array([1, 0, 0, -1], dtype=complex))
    swap_target = CP3Point(np.array([1, 1, -1, 1], dtype=complex))
    r_hopf = acs_to_cp3(hopf_acs()).projective_distance(hopf_target)
    r_swap = acs_to_cp3(ank_reference_acs()).projective_distance(swap_target)
    assert r_hopf < 1e-9
    assert r_swap < 1e-9
    worst_vertex = 0.0
    for k in range(4):
        corner = np.zeros(4, dtype=complex)
        corner[k] = 1.0
        worst_vertex = max(
            worst_vertex,
            acs_to_cp3(vertex_acs(k)).projective_distance(CP3Point(corner)),
            float(np.max(np.abs(cp3_to_acs(CP3Point(corner)).matrix - vertex_acs(k).matrix))),
        )
    assert worst_vertex < 1e-12
    _stamp(
        "criterion 4 (projective fixtures)",
        f"hopf {r_hopf:.1e}, swap {r_swap:.1e}, vertices {worst_vertex:.1e}",
    )


def test_criterion_5_edge01_family():
    start = time.perf_counter()
    rng = np.random.default_rng(55)
    worst = 0.0
    for _ in range(100):
        s, c1, c2 = (float(v) for v in unit3(rng))
        constructive = edge01_form(s, c1, c2)
        closed = edge01_closed_form(s, c1, c2)
        worst = max(worst, float(np.max(np.abs(constructive.coeffs - closed.coeffs))))
    elapsed = time.perf_counter() - start
    assert worst < 1e-9
    assert elapsed < 1.0
    _stamp("criterion 5 (edge family)", f"worst coefficient residual {worst:.3e}")


def _seam_limit(theta, fixed, plus_side):
    etas = [1e-2 / 2**k for k in range(4)]

    def sample(eta):
        r = -1.0 + eta * eta
        mag = np.sqrt(max(0.0, 1.0 - r * r))
        if plus_side:
            params = PolarPairParams(r, 0.0, -mag, *fixed)
        else:
            params = PolarPairParams(*fixed, r, 0.0, mag)
        return circle_form(params, theta).coeffs

    vals = [sample(e) for e in etas]
    for m in range(1, len(etas)):
        vals = [
            (etas[i] * vals[i + 1] - etas[i + m] * vals[i]) / (etas[i] - etas[i + m])
            for i in range(len(vals) - 1)
        ]
    if plus_side:
        target = circle_form(PolarPairParams(-1.0, 0.0, 0.0, *fixed), theta).coeffs
    else:
        target = circle_form(PolarPairParams(*fixed, -1.0, 0.0, 0.0), theta).coeffs
    return float(np.max(np.abs(vals[0] - target)))


def test_criterion_6_circle_branches():
    rng = np.random.default_rng(66)
    # (a) degenerate branch: printed display matches exactly
    worst_deg = 0.0
    params_deg = PolarPairParams(-1, 0, 0, -1, 0, 0)
    for _ in range(10):
        theta = float(rng.uniform(0, 2 * np.pi))
        printed, branch = printed_circle_form(params_deg, theta)
        assert branch == "both_degenerate"
        worst_deg = max(
            worst_deg,
            float(np.max(np.abs(circle_form(params_deg, theta).coeffs - printed.coeffs))),
        )
    assert worst_deg < 1e-9

    # (b) generic and mixed branches match the recomputed formulas
    worst_branch = 0.0
    for _ in range(25):
        rp, xp, up = (float(v) for v in unit3(rng))
        rm, xm, um = (float(v) for v in unit3(rng))
        theta = float(rng.uniform(0, 2 * np.pi))
        for params in (
            PolarPairParams(rp, xp, up, rm, xm, um),
            PolarPairParams(rp, xp, up, -1.0, 0.0, 0.0),
            PolarPairParams(-1.0, 0.0, 0.0, rm, xm, um),
        ):
            closed, _ = circle_closed_form(params, theta)
            constructive = circle_form(params, theta)
            worst_branch = max(
                worst_branch, float(np.max(np.abs(constructive.coeffs - closed.coeffs)))
            )
    assert worst_branch < 1e-9

    # (c) seam continuity as a numerical limit taken from |r+1| = 1e-4
    worst_seam = 0.0
    for _ in range(3):
        fixed = tuple(float(v) for v in unit3(rng))
        theta = float(rng.uniform(0, 2 * np.pi))
        worst_seam = max(worst_seam, _seam_limit(theta, fixed, True))
        worst_seam = max(worst_seam, _seam_limit(theta, fixed, False))
    assert worst_seam < 1e-6
    _stamp(
        "criterion 6 (circle branches)",
        f"degenerate {worst_deg:.1e}, recomputed {worst_branch:.1e}, seam {worst_seam:.1e}",
    )


def test_criterion_7_ank_set_equality():
    start = time.perf_counter()
    # forward: a 20 x 20 x 8 grid of circle structures is ANK
    worst_block = 0.0
    for r in np.linspace(-1.0, 1.0, 20):
        scale = np.sqrt(max(0.0, 1.0 - r * r))
        for phi in np.linspace(0.0, 2 * np.pi, 20, endpoint=False):
            x, u = scale * np.cos(phi), scale * np.sin(phi)
            for theta in np.linspace(0.0, 2 * np.pi, 8, endpoint=False):
                acs = ank_circle_acs(float(r), float(x), float(u), float(theta))
                b = blocks(acs)
                worst_block = max(
                    worst_block, float(np.linalg.norm(b.A)), float(np.linalg.norm(b.C))
                )
    assert worst_block < 1e-9

    # reverse: random ANK structures invert to circle parameters
    rng = np.random.default_rng(77)
    worst_dist = 0.0
    for _ in range(100):
        rot = random_rotation3(rng)
        z3 = np.zeros((3, 3))
        acs = ACS(np.block([[z3, rot], [-rot.T, z3]]))
        r, x, u, theta = invert_ank_circle(acs)
        point = circle_point(ank_circle_params(r, x, u), theta)
        worst_dist = max(worst_dist, acs_to_cp3(acs).projective_distance(point))
    elapsed = time.perf_counter() - start
    assert worst_dist < 1e-6
    assert elapsed < 60.0
    _stamp(
        "criterion 7 (ANK set equality)",
        f"grid blocks {worst_block:.1e}, inversion distance {worst_dist:.1e}, {elapsed:.1f}s",
    )


def test_criterion_8_nearly_kaehler_identities():
    start = time.perf_counter()
    rng = np.random.default_rng(88)
    eye = np.eye(6)
    worst_identity = 0.0
    worst_defect = 0.0
    for _ in range(50):
        r, x, u = (float(v) for v in unit3(rng))
        acs = ank_circle_acs(r, x, u, float(rng.uniform(0, 2 * np.pi)))
        for i in range(6):
            for j in range(6):
                worst_identity = max(
                    worst_identity, abs(nabla_omega(acs, eye[i], eye[i], eye[j]))
                )
        worst_defect = max(worst_defect, abs(nk_defect(acs) - np.sqrt(6.0)))
    elapsed = time.perf_counter() - start
    assert worst_identity < 1e-12
    # every ANK defect is sqrt(6), the floor of nk_defect on Z, to rounding
    assert worst_defect <= 1e-12
    assert elapsed < 2.0
    mixed = nabla_omega(
        ank_reference_acs(), eye[1] + eye[3], eye[1] + eye[3], eye[2]
    )
    _stamp(
        "criterion 8 (nearly Kaehler identities)",
        f"basis identity {worst_identity:.1e}, defect - sqrt(6) {worst_defect:.1e}; "
        f"mixed-direction value {mixed} (literature -1)",
    )


def test_criterion_9_constraint_system():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(1000):
        b = blocks(random_acs(seed))
        worst = max(worst, float(np.max(constraint_residuals(b))))
        worst = max(worst, float(np.max(cofactor_checks(b))))
    elapsed = time.perf_counter() - start
    assert worst < 1e-9
    assert elapsed < 5.0
    _stamp("criterion 9 (constraint system)", f"worst residual {worst:.3e} in {elapsed:.2f}s")


def test_criterion_10_determinism(tmp_path, capsys):
    def capture(*argv):
        code = main(list(argv))
        return code, capsys.readouterr().out

    code1, out1 = capture("verify", "--json", "--seed", "0")
    code2, out2 = capture("verify", "--json", "--seed", "0")
    assert code1 == code2 == 0
    assert out1 == out2

    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    capture("sample", "--set", "ank", "--count", "40", "--seed", "9", "--out", str(f1))
    capture("sample", "--set", "ank", "--count", "40", "--seed", "9", "--out", str(f2))
    assert f1.read_bytes() == f2.read_bytes()

    _, opt1 = capture("optimize", "--direction", "max", "--restarts", "4", "--seed", "3")
    _, opt2 = capture("optimize", "--direction", "max", "--restarts", "4", "--seed", "3")
    assert opt1 == opt2
    _stamp("criterion 10 (determinism)", "verify, sample and optimize byte-identical")
