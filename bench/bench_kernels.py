#!/usr/bin/env python3
"""Compare the pure-Python and compiled kernel backends.

Times the three kernel entry points that dominate the library's work: blade
products, term-map products, and integer Smith normal form.  Each workload is deterministic (fixed seed)
and identical across backends; results are wall-clock best-of-repeats via
timeit, so numbers are comparable within a run but not across machines.

Usage: python bench/bench_kernels.py [--repeats N]
"""

from __future__ import annotations

import argparse
import random
import timeit

from cliffk.backend import available_backends, get_kernel


def _workloads(seed: int = 20260822):
    rng = random.Random(seed)

    blade_args = [
        (rng.randrange(1 << 10), rng.randrange(1 << 10), rng.randrange(11))
        for _ in range(2000)
    ]

    def dense_map(nbits: int) -> dict:
        return {m: rng.choice((-3, -2, -1, 1, 2, 3)) for m in range(1 << nbits)}

    term_pairs = [(dense_map(6), dense_map(6), 3) for _ in range(8)]

    snf_mats = []
    for _ in range(40):
        m, n = rng.randrange(1, 9), rng.randrange(1, 9)
        snf_mats.append(
            [[rng.randrange(-20, 21) for _ in range(n)] for _ in range(m)]
        )

    return blade_args, term_pairs, snf_mats


def bench_backend(name: str, repeats: int) -> dict[str, float]:
    k = get_kernel(name)
    blade_args, term_pairs, snf_mats = _workloads()

    def run_blades():
        for a, b, p in blade_args:
            k.blade_mul_mask(a, b, p)

    def run_terms():
        for ta, tb, p in term_pairs:
            k.mul_term_maps(ta, tb, p)

    def run_snf():
        for mat in snf_mats:
            k.snf(mat, len(mat), len(mat[0]))

    out = {}
    for label, fn in (
        ("blade_mul_mask x2000", run_blades),
        ("mul_term_maps 64-term x8", run_terms),
        ("snf 8x8 x40", run_snf),
    ):
        out[label] = min(timeit.repeat(fn, number=1, repeat=repeats))
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args()

    names = available_backends()
    results = {name: bench_backend(name, args.repeats) for name in names}

    labels = list(next(iter(results.values())))
    width = max(len(s) for s in labels)
    header = f"{'workload':<{width}}" + "".join(f"  {n:>10}" for n in names)
    if len(names) > 1:
        header += f"  {'speedup':>8}"
    print(header)
    for label in labels:
        row = f"{label:<{width}}"
        for n in names:
            row += f"  {results[n][label] * 1e3:>8.2f}ms"
        if len(names) > 1:
            ratio = results[names[0]][label] / results[names[-1]][label]
            row += f"  {ratio:>7.1f}x"
        print(row)


if __name__ == "__main__":
    main()
