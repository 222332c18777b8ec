"""Traced pass: per-layer metrics from in-process calls into twistorz.

Every span is recorded here, around calls into the package's public
functions; nothing inside ``src/`` is instrumented.  A span covers a batch
of identical calls and stores its name, start, end, parent span and the
number of calls, so a per-call figure is the span's duration divided by
its call count.  Spans stay in memory and are written to
``perfbench/out/spans-<workload>-<seed>.json`` when the run ends.

Submodules are reached with ``importlib.import_module``: the package
re-exports the function ``nijenhuis`` under the name of its submodule, so
``import twistorz.nijenhuis as N`` binds the function, not the module.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import io
import json
import os
import statistics
import sys
import time

import numpy as np

import oracle
import run

SAMPLES = 200


class Tracer:
    """In-memory spans; each pass of the run is one trace."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.trace = 0
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, calls: int = 1):
        record = {"name": name, "trace": self.trace, "parent": self._open[-1] if self._open else None,
                  "calls": calls, "start": time.perf_counter(), "end": None}
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()


def _seconds(record: dict) -> float:
    return record["end"] - record["start"]


def _unit3(rng: np.random.Generator) -> tuple[float, float, float]:
    v = rng.standard_normal(3)
    return tuple(float(x) for x in v / np.linalg.norm(v))


@contextlib.contextmanager
def counting_calls(module):
    """Wrap the module's public functions with call counters; restore them on exit."""
    calls = [0]
    originals = {name: fn for name, fn in vars(module).items()
                 if not name.startswith("_") and inspect.isroutine(fn)}

    def wrap(fn):
        def counted(*args, **kwargs):
            calls[0] += 1
            return fn(*args, **kwargs)
        return counted

    for name, fn in originals.items():
        setattr(module, name, wrap(fn))
    try:
        yield calls
    finally:
        for name, fn in originals.items():
            setattr(module, name, fn)


def import_times(env: dict[str, str]) -> tuple[float, float]:
    """Cumulative import time of twistorz and of scipy.linalg (0 if not imported), in s."""
    outcome = run.spawn([sys.executable, "-X", "importtime", "-c", "import twistorz"], env)
    cumulative = {}
    for line in outcome.err.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
            cumulative[parts[2].strip()] = int(parts[1]) * 1e-6
    return cumulative["twistorz"], cumulative.get("scipy.linalg", 0.0)


class LayerPass:
    def __init__(self, tracer: Tracer, env: dict[str, str]) -> None:
        self.tracer = tracer
        self.env = env
        self.mods = {name: importlib.import_module(f"twistorz.{name}") for name in
                     ("kernels", "acs", "cp3", "nijenhuis", "nearly_kaehler", "zgeom", "search", "verify", "cli")}
        self.values: dict[str, tuple[float, str]] = {}
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def per_call(self, metric: str, fn, arg_lists) -> None:
        with self.tracer.span(metric, calls=len(arg_lists)) as record:
            for args in arg_lists:
                fn(*args)
        self.attempted += 1
        self.values[metric] = (_seconds(record) / len(arg_lists) * 1e6, "us")

    def microbenchmarks(self, rng: np.random.Generator, seed: int) -> None:
        K, A, P, N, NK, Zg = (self.mods[m] for m in ("kernels", "acs", "cp3", "nijenhuis", "nearly_kaehler", "zgeom"))
        matrices = [oracle.random_member(rng) for _ in range(SAMPLES)]
        structures = [(A.ACS(m),) for m in matrices]
        j0 = oracle.vertex(0)
        rotations = [(oracle.haar_so(6, rng), j0) for _ in range(SAMPLES)]
        points = [(P.CP3Point(rng.standard_normal(4) + 1j * rng.standard_normal(4)),) for _ in range(SAMPLES)]
        vectors = [(s, *rng.standard_normal((3, 6))) for (s,) in structures]
        units = [_unit3(rng) for _ in range(SAMPLES)]
        angles = rng.uniform(0.0, 2.0 * np.pi, SAMPLES)
        params = [(Zg.PolarPairParams(*_unit3(rng), *_unit3(rng)), float(t)) for t in angles]
        circle_points = [(Zg.circle_point(p, t),) for p, t in params]
        haar_rng = np.random.default_rng([seed, 6])

        for name in ("nijenhuis_components", "nijenhuis_norm_sq"):
            self.per_call(f"kernels.{name}_us", getattr(K, name), [(m,) for m in matrices])
        self.per_call("kernels.conjugated_norm_sq_us", K.conjugated_norm_sq, rotations)
        self.per_call("acs.validate_us", A.ACS.validate, [(m,) for m in matrices])
        self.per_call("acs.orientation_sign_us", A.orientation_sign, [(m,) for m in matrices])
        self.per_call("acs.haar_rotation_us", A.haar_rotation, [(6, haar_rng)] * SAMPLES)
        self.per_call("acs.random_acs_us", A.random_acs, [([seed, k],) for k in range(SAMPLES)])
        self.per_call("cp3.acs_to_cp3_us", P.acs_to_cp3, structures)
        self.per_call("cp3.cp3_to_acs_us", P.cp3_to_acs, points)
        for name in ("nijenhuis_norm", "is_integrable", "norm_law_residual"):
            self.per_call(f"nijenhuis.{name}_us", getattr(N, name), structures)
        self.per_call("nearly_kaehler.is_ank_us", NK.is_ank, structures)
        self.per_call("nearly_kaehler.nk_defect_us", NK.nk_defect, structures)
        self.per_call("nearly_kaehler.nabla_omega_us", NK.nabla_omega, vectors)
        self.per_call("zgeom.edge01_form_us", Zg.edge01_form, units)
        self.per_call("zgeom.circle_form_us", Zg.circle_form, params)
        self.per_call("zgeom.ank_circle_acs_us", Zg.ank_circle_acs, [(*u, float(t)) for u, t in zip(units, angles)])
        self.per_call("zgeom.invert_circle_us", Zg.invert_circle, circle_points)

    def searches(self, seed: int) -> None:
        S = self.mods["search"]
        with counting_calls(self.mods["kernels"]) as calls, self.tracer.span("search.maximize") as record:
            report = S.maximize(seed=seed)
        self.values["search.maximize_s"] = (_seconds(record), "s")
        self.values["search.iterations"] = (float(report.iterations), "count")
        self.values["search.kernel_calls"] = (float(calls[0]), "count")
        if report.best_value / oracle.MAX_NORM < 1.0 - 1e-4:
            self.problems.append(f"search.maximize(seed={seed}) reached only {report.best_value}")
        with self.tracer.span("search.minimize") as record:
            report = S.minimize(seed=seed)
        self.values["search.minimize_s"] = (_seconds(record), "s")
        if report.best_value > run.MIN_SEARCH_TOL:
            self.problems.append(f"search.minimize(seed={seed}) reached only {report.best_value}")
        self.attempted += 2

    def checks(self, seed: int) -> None:
        V = self.mods["verify"]
        for _, fn in inspect.getmembers(V, inspect.isfunction):
            if not fn.__name__.startswith("check_"):
                continue
            args = (seed,) if inspect.signature(fn).parameters else ()
            with self.tracer.span(f"verify.{fn.__name__}") as record:
                result = fn(*args)
            self.attempted += 1
            self.values[f"verify.{result.name}_s"] = (_seconds(record), "s")
            if not result.passed:
                self.problems.append(f"verify.{fn.__name__}({seed}) failed, residual {result.residual}")

    def cli_mains(self, rng: np.random.Generator) -> None:
        """One round of each workload through cli.main, stdout and stderr captured."""
        cli = self.mods["cli"]
        for command, build_round in (("verify", run.certify_round), ("optimize", run.extremize_round),
                                     ("sample", run.cloud_round), ("classify", run.classify_round)):
            ops = build_round(rng)
            with self.tracer.span(f"cli.main_{command}", calls=len(ops)) as record:
                for op in ops:
                    out, err = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        try:
                            code = cli.main(op.args)
                        except SystemExit as exc:
                            code = exc.code
                        except Exception as exc:  # noqa: BLE001 - an uncaught error is a failed operation
                            code = f"{type(exc).__name__}: {exc}"
                    self.attempted += 1
                    if isinstance(code, str):
                        self.failed += 1
                        continue
                    problem = run.judge(op, code, out.getvalue(), err.getvalue())
                    if problem:
                        self.problems.append(f"cli.main({op.args}): {problem}")
            self.values[f"cli.main_{command}_s"] = (_seconds(record) / len(ops), "s")

    def imports(self) -> None:
        with self.tracer.span("cli.import"):
            total, scipy_linalg = import_times(self.env)
        self.attempted += 1
        self.values["cli.import_s"] = (total, "s")
        self.values["cli.import_scipy_linalg_s"] = (scipy_linalg, "s")


def span_overhead_us(tracer: Tracer, n: int = 2000) -> float:
    start = time.perf_counter()
    for _ in range(n):
        with tracer.span("overhead"):
            pass
    elapsed = time.perf_counter() - start
    del tracer.spans[-n:]
    return elapsed / n * 1e6


def run_traced(name: str, seed: int, seconds: float) -> tuple[dict, dict, list[str]]:
    env = run.child_env()
    sys.path.insert(0, str(run.SRC))
    import twistorz

    if not os.path.realpath(twistorz.__file__).startswith(os.path.realpath(run.SRC) + os.sep):
        raise SystemExit(f"twistorz was imported from outside {run.SRC}")
    info = {"workload": name, "seed": seed, "backend": twistorz.BACKEND, "twistorz": twistorz.__version__,
            "python": sys.version.split()[0], "numpy": np.__version__, "cpus": os.cpu_count()}

    tracer = Tracer()
    info["span_overhead_us"] = span_overhead_us(tracer)
    rng = np.random.default_rng([seed, sum(map(ord, name)), 1])
    passes: list[LayerPass] = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        layer_pass = LayerPass(tracer, env)
        tracer.trace = len(passes)
        pass_seed = int(rng.integers(2**31))
        with tracer.span("pass"):
            layer_pass.imports()
            layer_pass.microbenchmarks(rng, pass_seed)
            layer_pass.searches(pass_seed)
            layer_pass.checks(pass_seed)
            layer_pass.cli_mains(rng)
        passes.append(layer_pass)

    (run.WORK / f"spans-{name}-{seed}.json").write_text(json.dumps(tracer.spans), encoding="utf-8")
    metrics = {}
    for metric, (_, unit) in passes[0].values.items():
        metrics[metric] = (statistics.median(p.values[metric][0] for p in passes), unit)
    info["passes"] = len(passes)
    result = {"attempted": sum(p.attempted for p in passes), "failed": sum(p.failed for p in passes),
              "metrics": metrics}
    return info, result, [problem for p in passes for problem in p.problems]
