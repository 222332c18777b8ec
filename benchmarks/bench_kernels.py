#!/usr/bin/env python3
"""Benchmark the compiled kernels against the pure-numpy fallback.

Run after an editable install:

    python benchmarks/bench_kernels.py [--number 2000]

Each iteration of the extremum search makes one orbit-gradient call (one
components evaluation plus a few contractions) and one or more
conjugated-norm calls in its line search.  The last row times the
gradient with the active backend.
"""

import argparse
import importlib
import timeit

import numpy as np

from twistorz import kernels
from twistorz.acs import _vertex_matrix, haar_rotation
from twistorz.search import _norm_grad


def load_backends():
    backends = {"pure": importlib.import_module("twistorz._kernels_py")}
    try:
        backends["compiled"] = importlib.import_module("twistorz._kernels_cy")
    except ImportError:
        print("note: compiled extension not built; benchmarking the fallback only")
    return backends


def bench(fn, number):
    best = min(timeit.repeat(fn, number=number, repeat=5))
    return best / number


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--number", type=int, default=2000, help="calls per timing sample")
    args = parser.parse_args()

    rng = np.random.default_rng(0)
    j_ref = _vertex_matrix(0)
    q = haar_rotation(6, rng)
    j = q @ j_ref @ q.T

    backends = load_backends()
    rows = []
    for name, impl in backends.items():
        t_comp = bench(lambda impl=impl: impl.nijenhuis_components(j), args.number)
        t_norm = bench(lambda impl=impl: impl.nijenhuis_norm_sq(j), args.number)
        t_conj = bench(lambda impl=impl: impl.conjugated_norm_sq(q, j_ref), args.number)
        rows.append((name, t_comp, t_norm, t_conj))

    print(f"{'backend':<10} {'components':>14} {'norm_sq':>14} {'conjugated':>14}")
    for name, t_comp, t_norm, t_conj in rows:
        print(f"{name:<10} {t_comp*1e6:>12.2f}us {t_norm*1e6:>12.2f}us {t_conj*1e6:>12.2f}us")
    if len(rows) == 2:
        pure = rows[0] if rows[0][0] == "pure" else rows[1]
        comp = rows[0] if rows[0][0] == "compiled" else rows[1]
        print(
            f"speedup (pure/compiled): components {pure[1]/comp[1]:.1f}x, "
            f"norm {pure[2]/comp[2]:.1f}x, conjugated {pure[3]/comp[3]:.1f}x"
        )
    t_grad = bench(lambda: _norm_grad(q, j_ref), args.number)
    print(f"orbit gradient ({kernels.BACKEND} backend): {t_grad*1e6:.2f}us")


if __name__ == "__main__":
    main()
