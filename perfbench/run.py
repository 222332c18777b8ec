#!/usr/bin/env python3
"""End-to-end benchmark of the twistorz command line.

Run from the repository root:

    python3 perfbench/run.py --workload certify|extremize|cloud|classify \
        --seed N --seconds S --trace 0|1

With ``--trace 0`` every CLI invocation is a fresh ``python -m twistorz.cli``
process, started one at a time, and the last line of stdout is one JSON
object with the end-to-end metrics.  With ``--trace 1`` the layers are
called in-process instead and the per-layer metrics are reported (see
``layers.py``).  Each invocation's output is checked against the
independent computations in ``oracle.py``.  The line before the result
records the backend, versions and machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import oracle

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "out"

SETUP_REPEATS = 5
CSV_HEADER = "b0,b1,b2,b3,nijenhuis_norm,integrable,ank"
CLOUD_SETS = ("ank", "polar", "edge01", "random", "integrable")
CLOUD_COUNT = 400
OPTIMIZE_RESTARTS = 20
#: the norm functional is zero on integrable structures; the CLI flags below 1e-9
INTEGRABLE_TOL = 1e-9
#: floor reached by `optimize --direction min` (observed about 1e-10)
MIN_SEARCH_TOL = 1e-6
SWAP_NK_DEFECT = oracle.nk_defect(oracle.swap())

#: classify fixtures: Hopf, the factor swap and the four vertices
FIXTURES = (
    ("hopf", "1,0,0,-1", oracle.hopf()),
    ("swap", "1,1,-1,1", oracle.swap()),
) + tuple((f"vertex{k}", ",".join("1" if a == k else "0" for a in range(4)), oracle.vertex(k))
          for k in range(4))
#: inputs that should exit 2 with one `error:` line; today they exit 1 with a
#: ValueError traceback, so each invocation counts as a failed operation
#: (an invocation fails when it crashes; a wrong answer makes the run incorrect)
KNOWN_FAULTS = ("0,0,0,0", "nan,1,1,1")


class Wrong(Exception):
    """The program's output failed a check."""


def expect(cond, message: str) -> None:
    if not cond:
        raise Wrong(message)


def close(value: float, target: float, rel: float) -> bool:
    return abs(value - target) <= rel * max(1.0, abs(target))


@dataclass
class Op:
    """One CLI invocation: arguments, expected exit code, output check."""

    args: list[str]
    exit_code: int
    check: Callable[[str, str], None]


# ---------------------------------------------------------------------------
# certify: `twistorz verify --json`


def check_verify(out: str, err: str) -> None:
    records = json.loads(out)
    names = {r["name"] for r in records}
    expect(len(records) == 16 and len(names) == 16, f"expected 16 distinct checks, got {len(records)}")
    failing = [r["name"] for r in records if r["status"] != "pass"]
    expect(not failing, f"checks not passing: {failing}")
    by_name = {r["name"]: r for r in records}
    measured = by_name["norm_maximum"]["measured_value"]
    expect(close(measured, oracle.MAX_NORM, 1e-4), f"norm_maximum {measured} vs sqrt(kappa) {oracle.MAX_NORM}")
    kappa_root = by_name["norm_proportionality"]["measured_value"]
    expect(close(kappa_root, oracle.MAX_NORM, 1e-12), f"calibration {kappa_root} vs {oracle.MAX_NORM}")
    defect = by_name["nk_defect_floor"]["measured_value"]
    expect(close(defect, SWAP_NK_DEFECT, 1e-12), f"swap NK defect {defect} vs {SWAP_NK_DEFECT}")


def certify_round(rng: np.random.Generator) -> list[Op]:
    seed = str(int(rng.integers(2**31)))
    return [Op(["verify", "--json", "--seed", seed], 0, check_verify)]


# ---------------------------------------------------------------------------
# extremize: `twistorz optimize --json`


def check_optimize(direction: str, out: str, err: str) -> None:
    doc = json.loads(out)
    expect(doc["direction"] == direction, "wrong direction echoed")
    expect(doc["converged"] is True, "search did not converge")
    expect(doc["restarts"] == OPTIMIZE_RESTARTS, "wrong restart count")
    j = np.array([float(v) for v in doc["best_matrix"]]).reshape(6, 6)
    r_complex, r_orth, oriented = oracle.membership_residuals(j)
    expect(r_complex <= 1e-9 and r_orth <= 1e-9, f"best_matrix off Z ({r_complex:.2e}, {r_orth:.2e})")
    expect(oriented, "best_matrix has the wrong Pfaffian sign")
    value = float(doc["best_value"])
    expect(abs(oracle.norm(j) - value) <= 1e-9 * max(1.0, value), "best_value is not the norm of best_matrix")
    expect(close(float(doc["ratio_to_max"]), value / oracle.MAX_NORM, 1e-12), "ratio_to_max inconsistent")
    if direction == "max":
        expect(value / oracle.MAX_NORM >= 1.0 - 1e-4, f"maximum {value} short of sqrt(kappa)")
        expect(max(oracle.block_norms(j)) <= 1e-3, "maximizer has nonzero A or C block")
    else:
        expect(value <= MIN_SEARCH_TOL, f"minimum {value} above {MIN_SEARCH_TOL}")


def extremize_round(rng: np.random.Generator) -> list[Op]:
    seed = str(int(rng.integers(2**31)))
    return [
        Op(["optimize", "--json", "--direction", d, "--seed", seed], 0, partial(check_optimize, d))
        for d in ("max", "min")
    ]


# ---------------------------------------------------------------------------
# cloud: `twistorz sample` for all five sets


def check_cloud(set_name: str, out: str, err: str) -> None:
    lines = out.splitlines()
    expect(lines and lines[0] == CSV_HEADER, "bad CSV header")
    expect(len(lines) - 1 == CLOUD_COUNT, f"{len(lines) - 1} rows, asked for {CLOUD_COUNT}")
    rows = [line.split(",") for line in lines[1:]]
    expect(all(len(r) == 7 for r in rows), "row without 7 columns")
    b = np.array([[float(v) for v in r[:4]] for r in rows])
    norm = np.array([float(r[4]) for r in rows])
    flags = np.array([[r[5], r[6]] for r in rows])
    expect(np.all(np.isin(flags, ("true", "false"))), "flag column not true/false")
    integrable = flags[:, 0] == "true"
    expect(np.all(b >= 0.0), "negative tetra coordinate")
    expect(np.all(np.abs(b.sum(axis=1) - 1.0) <= 1e-9), "tetra coordinates do not sum to 1")
    expect(np.array_equal(integrable, norm <= INTEGRABLE_TOL), "integrable flag disagrees with the norm")
    expect(np.all(norm <= oracle.MAX_NORM * (1.0 + 1e-9)), "norm above sqrt(kappa)")
    if set_name == "ank":
        expect(np.all(np.abs(norm - oracle.MAX_NORM) <= 1e-9), "ANK row without norm sqrt(kappa)")
        expect(np.all(np.abs(b[:, 0] + b[:, 3] - 0.5) <= 1e-9), "ANK row with b0 + b3 != 1/2")
        expect(np.all(flags[:, 1] == "true"), "ANK row not flagged ank")
    elif set_name == "polar":
        expect(np.all(np.abs(b[:, 0] + b[:, 3] - 0.5) <= 1e-9), "polar row with b0 + b3 != 1/2")
        expect(np.all(np.abs(b[:, 1] + b[:, 2] - 0.5) <= 1e-9), "polar row with b1 + b2 != 1/2")
    elif set_name == "edge01":
        expect(np.all(b[:, 2:] <= 1e-12), "edge01 row off the edge b2 = b3 = 0")
        expect(np.all(integrable), "edge01 row not integrable")
    elif set_name == "integrable":
        expect(np.all(integrable), "integrable-set row with nonzero norm")


def cloud_round(rng: np.random.Generator) -> list[Op]:
    seed = str(int(rng.integers(2**31)))
    return [
        Op(["sample", "--set", s, "--count", str(CLOUD_COUNT), "--seed", seed], 0, partial(check_cloud, s))
        for s in CLOUD_SETS
    ]


# ---------------------------------------------------------------------------
# classify: short `twistorz classify` calls, with and without --json


def _assemble(blocks: dict) -> np.ndarray:
    a, b, c = (np.array([float(v) for v in blocks[k]]).reshape(3, 3) for k in "ABC")
    return np.block([[a, b], [-b.T, c]])


def _complex(text: str) -> complex:
    return complex(text.replace("i", "j"))


def check_accepted(label: str, point, matrix, doc: dict) -> None:
    """A structure classified as a member of Z; point and matrix are the inputs (or None)."""
    expect(doc["in_z"] is True, f"{label}: rejected a member of Z")
    j = _assemble(doc["blocks"])
    expect(oracle.in_z(j), f"{label}: blocks do not assemble to a member of Z")
    if matrix is not None:
        expect(np.max(np.abs(j - matrix)) <= 1e-9, f"{label}: blocks do not match the matrix")
    norm = float(doc["nijenhuis_norm"])
    expect(abs(oracle.norm(j) - norm) <= 1e-9 * max(1.0, norm), f"{label}: norm disagrees with the oracle")
    expect(doc["integrable"] == (norm <= INTEGRABLE_TOL), f"{label}: integrable flag")
    expect(doc["ank"] == (max(oracle.block_norms(j)) <= 1e-9), f"{label}: ank flag")
    expect(doc["polar_e5e6"] == (abs(j[5, 4]) <= 1e-9), f"{label}: polar_e5e6 flag")
    cp3 = np.array([_complex(z) for z in doc["cp3"]])
    expect(abs(np.linalg.norm(cp3) - 1.0) <= 1e-12, f"{label}: cp3 not unit norm")
    if point is not None:
        expect(oracle.projective_gap(cp3, point) <= 1e-9, f"{label}: cp3 is not the input point")
    tetra = np.array([float(v) for v in doc["tetra"]])
    reference = oracle.tetra(cp3 if point is None else point)
    expect(np.max(np.abs(tetra - reference)) <= 1e-12, f"{label}: tetra coordinates")
    if label == "hopf":
        expect(doc["integrable"] and not doc["ank"], "hopf: not integrable")
    if label == "swap":
        expect(doc["ank"] and close(norm, oracle.MAX_NORM, 1e-12), "swap: not ANK with norm sqrt(kappa)")


def check_rejected(label: str, point, matrix, doc: dict) -> None:
    expect(doc["in_z"] is False and doc["reason"], f"{label}: accepted a matrix off Z")


def _text_fields(doc: dict) -> dict[str, str]:
    """The `key: value` lines the text mode prints for a JSON report."""
    def show(v):
        return str(v).lower() if isinstance(v, bool) else v

    fields = {k: show(v) for k, v in doc.items() if k != "blocks"}
    if "cp3" in fields:
        fields["cp3"] = "[" + ", ".join(fields["cp3"]) + "]"
        fields["tetra"] = "(" + ", ".join(fields["tetra"]) + ")"
    return fields


def check_classify_json(check, label, point, matrix, seen: dict, out: str, err: str) -> None:
    doc = json.loads(out)
    check(label, point, matrix, doc)
    seen["text"] = _text_fields(doc)


def check_classify_text(label: str, seen: dict, out: str, err: str) -> None:
    fields = dict(line.split(": ", 1) for line in out.splitlines())
    expect("text" in seen and fields == seen["text"], f"{label}: text report differs from the JSON report")


def check_error_line(out: str, err: str) -> None:
    lines = err.splitlines()
    expect(out == "" and len(lines) == 1 and lines[0].startswith("error:"), "expected one error: line")


def _point_arg(u: np.ndarray) -> str:
    return ",".join(f"{z.real:.17g}{z.imag:+.17g}i" for z in u)


def classify_round(rng: np.random.Generator) -> list[Op]:
    """Fixtures, a seeded point, three seeded documents and the two known faults."""
    cases = [(label, f"--cp3={text}", np.array([_complex(z) for z in text.split(",")]), m, check_accepted, 0)
             for label, text, m in FIXTURES]
    u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    cases.append(("point", f"--cp3={_point_arg(u)}", u, None, check_accepted, 0))
    member = oracle.random_member(rng)
    skew = np.eye(6) + 0.25 * rng.standard_normal((6, 6))
    documents = (
        ("member", member, check_accepted, 0),
        ("reversed", -member, check_rejected, 1),
        ("skewed", skew @ member @ np.linalg.inv(skew), check_rejected, 1),
    )
    for label, matrix, check, code in documents:
        path = WORK / f"classify-{label}.json"
        path.write_text(json.dumps({"matrix": matrix.flatten().tolist(), "label": label}), encoding="utf-8")
        cases.append((label, f"--in={path.relative_to(ROOT)}", None, matrix if code == 0 else None, check, code))

    ops = []
    for label, arg, point, matrix, check, code in cases:
        seen: dict = {}
        ops.append(Op(["classify", arg, "--json"], code,
                      partial(check_classify_json, check, label, point, matrix, seen)))
        ops.append(Op(["classify", arg], code, partial(check_classify_text, label, seen)))
    for text in KNOWN_FAULTS:
        for mode in (["--json"], []):
            ops.append(Op(["classify", f"--cp3={text}", *mode], 2, check_error_line))
    return ops


@dataclass
class Workload:
    build_round: Callable[[np.random.Generator], list[Op]]
    #: re-run the first invocation and require byte-identical stdout
    determinism: bool


#: the workload-specific name of call_s, as used in the README
CALL_NAMES = {"certify": "verify_s", "extremize": "optimize_s", "cloud": "sample_s", "classify": "classify_s"}

WORKLOADS = {
    "certify": Workload(certify_round, True),
    "extremize": Workload(extremize_round, False),
    "cloud": Workload(cloud_round, True),
    "classify": Workload(classify_round, False),
}


# ---------------------------------------------------------------------------
# processes


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@dataclass
class Outcome:
    exit_code: int
    out: str
    err: str
    wall_s: float
    max_rss_kb: int


def spawn(argv: list[str], env: dict[str, str]) -> Outcome:
    """Run one child to completion; time it and read its max RSS."""
    with tempfile.TemporaryFile(dir=WORK) as out, tempfile.TemporaryFile(dir=WORK) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL, env=env, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Outcome(proc.returncode, out.read().decode(), err.read().decode(), wall, usage.ru_maxrss)


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "twistorz.cli", *args]


def describe_program(env: dict[str, str]) -> dict:
    """Backend and versions as the CLI processes see them; also warms the bytecode cache."""
    probe = (
        "import json, sys, numpy, twistorz\n"
        "print(json.dumps({'backend': twistorz.BACKEND, 'twistorz': twistorz.__version__,"
        " 'file': twistorz.__file__, 'python': sys.version.split()[0], 'numpy': numpy.__version__}))"
    )
    outcome = spawn([sys.executable, "-c", probe], env)
    if outcome.exit_code != 0:
        raise SystemExit(f"cannot import twistorz from {SRC}:\n{outcome.err}")
    info = json.loads(outcome.out)
    if not Path(info.pop("file")).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"twistorz was imported from outside {SRC}")
    info["cpus"] = os.cpu_count()
    info["machine"] = platform.machine()
    return info


def measure_setup(env: dict[str, str]) -> float:
    """Median wall time of a fresh interpreter running `import twistorz`."""
    times = [spawn([sys.executable, "-c", "import twistorz"], env).wall_s for _ in range(SETUP_REPEATS)]
    return statistics.median(times)


def crashed(exit_code: int, err: str) -> bool:
    """A traceback or an undocumented exit code: the operation failed."""
    return exit_code not in (0, 1, 2, 3) or "Traceback (most recent call last)" in err


def judge(op: Op, exit_code, out: str, err: str) -> str | None:
    """The problem with a finished invocation's output, or None if it is right."""
    if exit_code != op.exit_code:
        return f"exit code {exit_code}, expected {op.exit_code}"
    try:
        op.check(out, err)
    except (Wrong, ValueError, KeyError, TypeError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


def run_op(op: Op, env: dict[str, str], problems: list[str]) -> tuple[Outcome, bool]:
    """Run and check one invocation; returns the outcome and whether it failed."""
    outcome = spawn(cli_argv(op.args), env)
    if crashed(outcome.exit_code, outcome.err):
        tail = outcome.err.strip().splitlines()[-1:] or [""]
        print(f"failed: twistorz {' '.join(op.args)} exited {outcome.exit_code}: {tail[0]}", file=sys.stderr)
        return outcome, True
    problem = judge(op, outcome.exit_code, outcome.out, outcome.err)
    if problem:
        problems.append(f"twistorz {' '.join(op.args)}: {problem}")
    return outcome, False


def run_untraced(name: str, seed: int, seconds: float) -> tuple[dict, dict, list[str]]:
    workload = WORKLOADS[name]
    env = child_env()
    info = describe_program(env)
    setup_s = measure_setup(env)

    rng = np.random.default_rng([seed, sum(map(ord, name))])
    problems: list[str] = []
    attempted = failed = 0
    peak_kb = 0
    per_call: list[float] = []
    first: tuple[Op, Outcome] | None = None
    start = time.perf_counter()
    while not per_call or time.perf_counter() - start < seconds:
        ops = workload.build_round(rng)
        wall = 0.0
        for op in ops:
            outcome, op_failed = run_op(op, env, problems)
            attempted += 1
            failed += op_failed
            wall += outcome.wall_s
            peak_kb = max(peak_kb, outcome.max_rss_kb)
            first = first or (op, outcome)
        per_call.append(wall / len(ops))

    if workload.determinism:
        op, outcome = first
        repeat = spawn(cli_argv(op.args), env)
        attempted += 1
        if repeat.out != outcome.out:
            problems.append(f"twistorz {' '.join(op.args)}: stdout differs between identical runs")

    metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "call_s": (statistics.median(per_call), "s"),
    }
    info.update(workload=name, seed=seed, calls=attempted, round_call_s=per_call)
    info[CALL_NAMES[name]] = metrics["call_s"][0]
    if name == "cloud":
        info["rows_per_s"] = CLOUD_COUNT / metrics["call_s"][0]
    return info, {"attempted": attempted, "failed": failed, "metrics": metrics}, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "twistorz" / "__init__.py").is_file():
        print(f"error: no twistorz sources under {SRC}", file=sys.stderr)
        return 1
    WORK.mkdir(exist_ok=True)
    seed = args.seed % 2**63
    if args.trace:
        import layers

        info, result, problems = layers.run_traced(args.workload, seed, args.seconds)
    else:
        info, result, problems = run_untraced(args.workload, seed, args.seconds)
    for problem in problems:
        print(f"wrong output: {problem}", file=sys.stderr)
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
