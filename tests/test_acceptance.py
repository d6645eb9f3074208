"""Acceptance gate: the eight headline guarantees, one test each.

Every test prints a single "criterion N: PASS/FAIL - ..." line on the real
terminal (capture suspended) so a full run reads as a checklist.  All
comparisons are exact integer or group equalities; the only tolerances are
wall-clock caps, asserted where a criterion carries one.
"""

import random
import time
from fractions import Fraction
from math import gcd

import pytest

from adams_oracle import adams_f
from cliffk.abgroup import (
    FGAbelianGroup,
    GroupHom,
    Sequence,
    exactness_at,
    smith_normal_form,
    solve_exact,
)
from cliffk.blades import Signature
from cliffk.ktheory import (
    KTheory,
    bott_sequence_instance,
    fiber_twist_check,
    point_k,
    reduced_k_rpn,
    thom_stability,
)
from cliffk.reps import verify_classification, verify_periodicity_iso
from cliffk.structure import ScalarField, classify
from exactness_oracle import apply, elements

KO, KU = KTheory.KO, KTheory.KU


@pytest.fixture
def report(capsys):
    def _report(number: int, ok: bool, text: str) -> None:
        with capsys.disabled():
            print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {text}")

    return _report


def test_criterion_1_classification(report):
    start = time.perf_counter()
    ok = True
    for p in range(9):
        for q in range(9 - p):
            sig = Signature(p, q)
            for field in (ScalarField.REAL, ScalarField.COMPLEX):
                if not verify_classification(sig, field):
                    ok = False
                if classify(sig, field).dim_over_field != sig.dim:
                    ok = False
    elapsed = time.perf_counter() - start
    in_time = elapsed < 30.0
    report(1, ok and in_time,
           f"classification and dimension identity verified for p+q <= 8, "
           f"both fields ({elapsed:.2f}s, cap 30s)")
    assert ok
    assert in_time


def test_criterion_2_periodicity_isomorphism(report):
    start = time.perf_counter()
    ok = all(verify_periodicity_iso(m) for m in range(6))
    elapsed = time.perf_counter() - start
    in_time = elapsed < 10.0
    report(2, ok and in_time,
           f"explicit periodicity isomorphism checked for m = 0..5 "
           f"({elapsed:.2f}s, cap 10s)")
    assert ok
    assert in_time


def test_criterion_3_projective_space_orders(report):
    start = time.perf_counter()
    ok = all(reduced_k_rpn(n, KO).order() == 2 ** adams_f(n)
             for n in range(1, 17))
    ok = ok and all(reduced_k_rpn(n, KU).order() == 2 ** (n // 2)
                    for n in range(1, 13))
    elapsed = time.perf_counter() - start
    in_time = elapsed < 10.0
    report(3, ok and in_time,
           f"projective-space K orders match the independent counting "
           f"formula, real n <= 16 and complex n <= 12 "
           f"({elapsed:.2f}s, cap 10s)")
    assert ok
    assert in_time


def test_criterion_4_point_tables(report):
    start = time.perf_counter()
    real_row = [point_k(i, KO) for i in range(16)]
    complex_row = [point_k(i, KU) for i in range(8)]
    Z = FGAbelianGroup.free(1)
    half = FGAbelianGroup.from_invariants(0, (2,))
    triv = FGAbelianGroup.trivial()
    pinned = [Z, half, half, triv, Z, triv, triv, triv]
    ok = (real_row[:8] == pinned
          and all(real_row[i + 8] == real_row[i] for i in range(8))
          and all(complex_row[i + 2] == complex_row[i] for i in range(6)))
    elapsed = time.perf_counter() - start
    report(4, ok,
           f"point groups recomputed over i <= 15 show period 8 (real) and "
           f"2 (complex); degree row matches the classical table "
           f"({elapsed:.2f}s)")
    assert ok


def test_criterion_5_thom_stability(report):
    start = time.perf_counter()
    ok = all(bool(thom_stability(n, 3)) for n in range(4))
    elapsed = time.perf_counter() - start
    report(5, ok,
           f"rank-stability pairs independent of r for n = 0..3, r <= 3, "
           f"including the +8 recomputation ({elapsed:.2f}s)")
    assert ok


def test_criterion_6_comparison_sequence(report):
    start = time.perf_counter()
    counts = {}
    for i in range(8):
        counts[i] = len(solve_exact(bott_sequence_instance(i), bound=2))
    ok = all(counts[i] >= 1 for i in range(8))
    sols = solve_exact(bott_sequence_instance(0), bound=2)
    got = sorted(tuple(m.matrix for m in s.maps) for s in sols)
    ok = ok and got == [(((-2,),), ((1,),), ()), (((2,),), ((1,),), ())]
    elapsed = time.perf_counter() - start
    in_time = elapsed < 5.0
    report(6, ok and in_time,
           f"four-term comparison sequence solvable at bound 2 for every "
           f"degree; degree-0 solutions are exactly r = +-2, eta = mod 2, "
           f"c = 0 ({elapsed:.2f}s, cap 5s)")
    assert ok
    assert in_time


def test_criterion_7_fiber_checks(report):
    start = time.perf_counter()
    result = fiber_twist_check()
    ok = result.passed and len(result.checks) == 4
    ok = ok and all(c.passed for c in result.checks)
    elapsed = time.perf_counter() - start
    report(7, ok,
           f"all four fiber-level checks pass, including the commuting "
           f"K0 square with both routes equal to [2] ({elapsed:.2f}s)")
    assert ok


def _det(mat) -> Fraction:
    n = len(mat)
    a = [[Fraction(v) for v in row] for row in mat]
    sign = 1
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            sign = -sign
        for r in range(c + 1, n):
            fac = a[r][c] / a[c][c]
            a[r] = [x - fac * y for x, y in zip(a[r], a[c])]
    out = Fraction(sign)
    for i in range(n):
        out *= a[i][i]
    return out


def _matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def _snf_instance_ok(mat) -> bool:
    u, d, v = smith_normal_form(mat)
    if _matmul(_matmul(u, mat), v) != d:
        return False
    if abs(_det(u)) != 1 or abs(_det(v)) != 1:
        return False
    m, n = len(mat), len(mat[0])
    for i in range(m):
        for j in range(n):
            if i != j and d[i][j]:
                return False
    diag = [d[i][i] for i in range(min(m, n))]
    if any(x < 0 for x in diag):
        return False
    nonzero = [x for x in diag if x]
    return all(b % a == 0 for a, b in zip(nonzero, nonzero[1:]))


def _random_hom(rng, src, tgt):
    # sample cell-wise over exactly the well-defined values: d * v = 0 mod e
    # has gcd(d, e) solutions, the multiples of e // gcd(d, e)
    rows = []
    for e in tgt.gen_orders:
        row = []
        for d in src.gen_orders:
            g = gcd(d, e)
            row.append((e // g) * rng.randrange(g))
        rows.append(tuple(row))
    return GroupHom(src, tgt, tuple(rows))


def test_criterion_8_abgroup_property_suite(report):
    start = time.perf_counter()
    rng = random.Random(20260822)

    snf_ok = True
    for _ in range(500):
        m = rng.randrange(1, 9)
        n = rng.randrange(1, 9)
        mat = [[rng.randrange(-20, 21) for _ in range(n)] for _ in range(m)]
        if not _snf_instance_ok(mat):
            snf_ok = False

    def cyc(*ds):
        return FGAbelianGroup.from_invariants(0, ds)

    corpus = [FGAbelianGroup.trivial(), cyc(2), cyc(3), cyc(4), cyc(2, 2),
              cyc(6), cyc(8), cyc(2, 4), cyc(2, 2, 2), cyc(9), cyc(12),
              cyc(2, 8), cyc(4, 4), cyc(2, 2, 4), cyc(16), cyc(2, 4, 4),
              cyc(2, 2, 2, 2), cyc(5), cyc(2, 6), cyc(3, 3), cyc(2, 2, 8)]
    assert all(g.order() <= 64 for g in corpus)

    exact_ok = True
    outcomes = {True: 0, False: 0}
    for _ in range(200):
        a, b, c = (rng.choice(corpus) for _ in range(3))
        f = _random_hom(rng, a, b)
        g = _random_hom(rng, b, c)
        img = {apply(f, x) for x in elements(a)}
        ker = {x for x in elements(b) if not any(apply(g, x))}
        want = img == ker
        got = exactness_at(Sequence((a, b, c), (f, g)), 1)[0]
        if got != want:
            exact_ok = False
        outcomes[want] += 1
    coverage_ok = outcomes[True] >= 5 and outcomes[False] >= 5

    elapsed = time.perf_counter() - start
    in_time = elapsed < 60.0
    ok = snf_ok and exact_ok and coverage_ok
    report(8, ok and in_time,
           f"500 randomized normal-form instances verified; exactness "
           f"checker agrees with the element-level oracle on {sum(outcomes.values())} "
           f"finite sequences ({elapsed:.2f}s, cap 60s)")
    assert snf_ok
    assert exact_ok
    assert coverage_ok
    assert in_time
