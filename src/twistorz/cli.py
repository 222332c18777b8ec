"""Command-line surface: verify, sample, classify, optimize.

Exit codes: 0 success, 1 check failure / not a member of Z, 2 internal or
parse error, 3 no convergence.  Floats are printed with 17 significant
digits so byte-level determinism is checkable end to end.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import re
import sys

# the top level is the stdlib and ``exceptions``, so the parser and every
# input check run before numpy loads: a call rejected with exit 2 never
# imports it.  Each ``_cmd_*`` imports only what it runs, so that ``optimize``
# never loads (or, without a bytecode cache, compiles) ``verify``, ``zgeom``,
# ``cp3`` or ``nearly_kaehler``
from .exceptions import NotInZError, ParseError, TwistorError

# numpy's bundled OpenBLAS starts a pool of threads at import that 6x6
# linear algebra never uses; in a CLI process they only spin and burn CPU.
# Set before a handler first imports numpy (``import twistorz`` does not
# import it), and never over a value the user set
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

CSV_HEADER = "b0,b1,b2,b3,nijenhuis_norm,integrable,ank"


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _fmt_opt(x: float | None) -> str:
    return "-" if x is None else _fmt(x)


def _show(value) -> str:
    """A report value as a text line shows it: bools in lower case, lists
    in brackets, tuples in parentheses."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, list):
        return f"[{', '.join(value)}]"
    if isinstance(value, tuple):
        return f"({', '.join(value)})"
    return str(value)


def _print_report(report: dict, keys, as_json: bool) -> None:
    """The whole report as JSON, or one ``key: value`` line per key of ``keys``."""
    if as_json:
        print(json.dumps(report, indent=2))
        return
    for key in keys:
        print(f"{key}: {_show(report[key])}")


def _int_at_least(low: int):
    """argparse type: an int no smaller than ``low``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse reports a ValueError as "invalid int value: 'x'"
    return parse


# ---------------------------------------------------------------------------
# verify


def _cmd_verify(args) -> int:
    from . import verify

    results = verify.run_all_checks(seed=args.seed)
    if args.json:
        print(json.dumps([r.to_dict() for r in results], indent=2))
    else:
        width = max(len(r.name) for r in results)
        for r in results:
            line = f"{r.name:<{width}}  {r.status:<4}  residual={_fmt(r.residual)}"
            if r.paper_value is not None or r.measured_value is not None:
                line += f"  paper={_fmt_opt(r.paper_value)}  measured={_fmt_opt(r.measured_value)}"
            if r.error is not None:
                line += f"  error={r.error}"
            print(line)
        n_fail = sum(0 if r.passed else 1 for r in results)
        print(f"{len(results) - n_fail}/{len(results)} checks passed")
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------
# sample


def _draw_ank(rng, row_seeds):
    from .zgeom import _random_ank

    return _random_ank(rng, len(row_seeds))


def _draw_integrable(rng, row_seeds):
    from .nijenhuis import _random_integrable

    return _random_integrable(rng, len(row_seeds))


def _draw_polar(rng, row_seeds):
    from .cp3 import cp3_to_acs
    from .zgeom import _random_circle, circle_point

    return cp3_to_acs(circle_point(*_random_circle(rng, len(row_seeds))))


def _draw_edge01(rng, row_seeds):
    from .acs import acs_from_form
    from .zgeom import _draw, edge01_form

    return acs_from_form(edge01_form(*_draw(rng, len(row_seeds), 1, angle=False)))


def _draw_random(rng, row_seeds):
    from .acs import _random_structures

    return _random_structures(row_seeds)


#: per sample set, a stack of structures for the rows with seeds [seed, k]
#: from the set's stream; every row draws what it would draw on its own, in
#: row order (the ``random`` set reads a stream of its own per row seed)
_SAMPLERS = {
    "ank": _draw_ank,
    "integrable": _draw_integrable,
    "random": _draw_random,
    "polar": _draw_polar,
    "edge01": _draw_edge01,
}


def _sample_structures(set_name: str, count: int, seed: int):
    """The sample's structures, one stack per chunk of rows, drawn from the
    set's seeded stream ``_Normals([seed, tag])``, the tag the sum of the
    set name's code points."""
    from .kernels import _chunk_sizes, _Normals

    rng = _Normals([seed, sum(map(ord, set_name))])
    draw = _SAMPLERS[set_name]
    start = 0
    for n in _chunk_sizes(count):
        yield draw(rng, [[seed, k] for k in range(start, start + n)])
        start += n


def _evaluate(acs):
    """(CP3 coordinates, tetrahedron coordinates, |N|, integrable, ank) of a
    structure, or per member of a stack: what ``classify`` and ``sample`` print."""
    from .acs import DEFAULT_TOL
    from .cp3 import acs_to_cp3, tetra_coords
    from .nearly_kaehler import is_ank
    from .nijenhuis import nijenhuis_norm

    point = acs_to_cp3(acs)
    norm = nijenhuis_norm(acs)
    return point.coords, tetra_coords(point), norm, norm < DEFAULT_TOL, is_ank(acs)


def _cloud_row(values) -> str:
    _, tetra, norm, integrable, ank = values
    return ",".join([_fmt(v) for v in tetra] + [_fmt(norm), str(integrable).lower(), str(ank).lower()])


def _write_cloud(args, out) -> None:
    # rows are drawn in row order, so each seed keeps its points, and built,
    # evaluated and written a chunk at a time on a stack, so memory stays
    # flat in --count
    out.write(CSV_HEADER + "\n")
    for stack in _sample_structures(args.set, args.count, args.seed):
        out.write("".join(_cloud_row(values) + "\n" for values in zip(*_evaluate(stack))))
        out.flush()


def _cmd_sample(args) -> int:
    if args.out == "-":
        _write_cloud(args, sys.stdout)
        return 0
    # the file is opened before any row is computed, so a bad path fails fast
    try:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            _write_cloud(args, fh)
    except OSError as exc:
        raise ParseError(f"cannot write {args.out}: {exc.strerror or exc}") from exc
    return 0


# ---------------------------------------------------------------------------
# classify


def _parse_complex(text: str) -> complex:
    cleaned = text.strip().replace(" ", "")
    if not cleaned:
        raise ParseError("empty complex literal")
    try:
        # "i" is the imaginary unit only at the end (before a ")"), not in "inf"
        return complex(re.sub(r"i(\)?)$", r"j\1", cleaned))
    except ValueError as exc:
        raise ParseError(f"cannot parse complex number {text!r}") from exc


def _load_structure(args):
    """The structure that ``--cp3`` or ``--in`` names.  Every ``ParseError``
    is raised in pure Python, before numpy or a numerical module loads."""
    if args.cp3 is not None:
        parts = args.cp3.split(",")
        if len(parts) != 4:
            raise ParseError("--cp3 needs four comma-separated complex coordinates")
        coords = [_parse_complex(p) for p in parts]
        # CP3Point's domain rule and messages, here so that a bad point never loads numpy
        if not all(math.isfinite(z.real) and math.isfinite(z.imag) for z in coords):
            raise ParseError("--cp3: expected 4 finite complex coordinates")
        if not any(coords):
            raise ParseError("--cp3: homogeneous coordinates cannot all vanish")
        from .cp3 import cp3_to_acs

        return cp3_to_acs(coords)
    # every JSON number arrives as a float, an integer beyond the float range as inf;
    # ValueError covers bytes that are not UTF-8 and text that is not JSON
    try:
        with open(args.infile, encoding="utf-8") as fh:
            doc = json.load(fh, parse_int=float)
    except (OSError, ValueError, RecursionError) as exc:
        raise ParseError(f"cannot read structure document: {exc}") from exc
    matrix = doc.get("matrix") if isinstance(doc, dict) else None
    if not isinstance(matrix, list) or len(matrix) != 36 or not all(type(v) is float for v in matrix):
        raise ParseError("structure document needs a row-major list of 36 floats under 'matrix'")
    if not all(map(math.isfinite, matrix)):
        raise ParseError("structure document has a non-finite matrix entry")
    import numpy as np

    from .acs import ACS

    return ACS.validate(np.reshape(matrix, (6, 6)))


def _cmd_classify(args) -> int:
    try:
        acs = _load_structure(args)
    except NotInZError as exc:
        report = {"in_z": False, "reason": str(exc)}
        _print_report(report, report, args.json)
        return 1

    from .acs import blocks, constraint_residuals, fundamental_form, polar_contains
    from .exterior import TwoForm

    b = blocks(acs)
    coords, tetra, norm, integrable, ank = _evaluate(acs)
    report = {
        "in_z": True,
        "blocks": {
            "A": [_fmt(v) for v in b.A.flatten()],
            "B": [_fmt(v) for v in b.B.flatten()],
            "C": [_fmt(v) for v in b.C.flatten()],
        },
        "nijenhuis_norm": _fmt(norm),
        "integrable": integrable,
        "ank": ank,
        "cp3": [f"{_fmt(z.real)}{z.imag:+.17g}i" for z in coords],
        "tetra": tuple(_fmt(v) for v in tetra),
        "polar_e5e6": polar_contains(TwoForm.basis(4, 5), fundamental_form(acs)),
        "max_constraint_residual": _fmt(constraint_residuals(b).max()),
    }
    _print_report(report, [key for key in report if key != "blocks"], args.json)
    return 0


# ---------------------------------------------------------------------------
# optimize


def _cmd_optimize(args) -> int:
    from . import search
    from .nijenhuis import max_norm

    runner = search.maximize if args.direction == "max" else search.minimize
    report = runner(seed=args.seed, restarts=args.restarts, max_iters=args.max_iters)
    ratio = report.best_value / max_norm()
    payload = {
        "direction": args.direction,
        "best_value": _fmt(report.best_value),
        "ratio_to_max": _fmt(ratio),
        "iterations": report.iterations,
        "restarts": report.restarts,
        "converged": report.converged,
        "best_matrix": [_fmt(v) for v in report.best_acs.matrix.flatten()],
        "restarts_detail": [
            {"restart": stop.restart, "reason": stop.reason, "value": _fmt(stop.value),
             "iterations": stop.iterations, "evaluations": stop.evaluations}
            for stop in report.stops
        ],
    }
    keys = ("direction", "best_value", "ratio_to_max", "iterations", "restarts", "converged")
    _print_report(payload, keys, args.json)
    return 0 if report.converged else 3


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twistorz",
        description="Almost complex structures on su(2)+su(2): verification, "
        "sampling, classification and Nijenhuis-norm extremization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the full verification report")
    p_verify.add_argument("--json", action="store_true")
    p_verify.add_argument("--seed", type=_int_at_least(0), default=0)
    p_verify.set_defaults(func=_cmd_verify)

    p_sample = sub.add_parser("sample", help="export a tetrahedron point cloud as CSV")
    p_sample.add_argument("--set", required=True, choices=tuple(_SAMPLERS), dest="set")
    p_sample.add_argument("--count", type=_int_at_least(1), required=True)
    p_sample.add_argument("--seed", type=_int_at_least(0), default=0)
    p_sample.add_argument("--out", default="-")
    p_sample.set_defaults(func=_cmd_sample)

    p_classify = sub.add_parser("classify", help="classify one structure")
    group = p_classify.add_mutually_exclusive_group(required=True)
    group.add_argument("--in", dest="infile", help="JSON structure document")
    group.add_argument("--cp3", help="four comma-separated complex coordinates, e.g. '1,0,0,-1' "
                       "or '-0.5,1i,0,2'")
    p_classify.add_argument("--json", action="store_true")
    p_classify.set_defaults(func=_cmd_classify)

    p_opt = sub.add_parser("optimize", help="extremize the Nijenhuis norm")
    p_opt.add_argument("--direction", choices=("max", "min"), default="max")
    p_opt.add_argument("--restarts", type=_int_at_least(1), default=20)
    p_opt.add_argument("--seed", type=_int_at_least(0), default=0)
    p_opt.add_argument("--max-iters", type=_int_at_least(1), default=500)
    p_opt.add_argument("--json", action="store_true")
    p_opt.set_defaults(func=_cmd_optimize)

    return parser


def main(argv: list[str] | None = None) -> int:
    # argparse takes a value that starts with "-" for an option unless it reads
    # as a negative number; no option holds a comma, so a token after --cp3
    # that holds one is its value.  Under classify argparse resolves every
    # prefix of --cp3 down to --c to it (no other option there starts so)
    argv = sys.argv[1:] if argv is None else argv
    cp3_names = ("--c", "--cp", "--cp3") if argv[:1] == ["classify"] else ()
    tokens = []
    for token in argv:
        if tokens and tokens[-1] in cp3_names and "," in token:
            tokens[-1] = f"--cp3={token}"
        else:
            tokens.append(token)
    args = build_parser().parse_args(tokens)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except TwistorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout (``| head``): that is no failed check, so
        # not exit 1.  stdout goes to devnull so that the interpreter's last
        # flush does not raise again (the recipe of Python's ``signal`` docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout was closed before the output was complete", file=sys.stderr)
        return 2


def _entry() -> int:
    """The program's entry (``python -m twistorz.cli``, the ``twistorz`` script)."""
    try:
        return main()
    finally:
        # once the answer is written, the only work left is finalization,
        # whose cyclic collection frees the ~22 000 tracked objects of numpy
        # and the package one at a time (20-33 ms of a 0.15-0.4 s process,
        # measured; 6-10 ms frozen).  Frozen objects sit in the permanent
        # generation, which no collection visits, and the OS reclaims them at
        # once.  Not in ``main``: in-process callers keep their collector
        gc.freeze()


if __name__ == "__main__":
    sys.exit(_entry())
