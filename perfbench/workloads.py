"""Seeded op generators and answer oracles for the three workloads.

A workload is an endless series of rounds.  Every round holds the same op
kinds in the same numbers, shuffled, so that a run that measures whole
rounds sees the same mix whatever the seed; the seed picks the inputs
inside each kind.  The program receives only the argv and the sequence
files written here.  Every op carries its expected answer, worked out here
without calling cliffk, and ``check`` compares the op's output with it.

Why each workload (kept in BENCHMARK.json too):

* ktables - cold ``cliffk bott`` / ``cliffk rpn`` and ``thom_stability``:
  nearly all time is restriction multiplicities (reps and the kernel's
  unit_pair_rank); the solver does no work.
* solve - ``cliffk seq`` on files with unknown maps: nearly all time is the
  abgroup enumeration; no reps work.
* checks - ``cliffk seq`` in check mode on long chain complexes,
  ``verify_classification`` and ``cliffk verify``: SNF, sparse rank and
  build_rep without restriction, so a change that speeds the other two
  workloads but slows these paths shows here.
"""

from __future__ import annotations

import json
import os
import tempfile
from functools import lru_cache
from math import prod

import groups as G

Z = (1, ())
TRIVIAL = (0, ())
Z2 = (0, (2,))
KO_ROW = [Z, Z2, Z2, TRIVIAL, Z, TRIVIAL, TRIVIAL, TRIVIAL]
KU_ROW = [Z, TRIVIAL]

# The five-term case Z -> Z^2 -> Z^2 -> Z/2+Z/2 -> 0, exact at every
# interior term.  At bound 2 it has 250,000 assignments and 240 solutions
# and takes seconds, so a run uses it at bound 1; the bound-2 count pins
# the oracle instead.
FIVE_TERM = [Z, (2, ()), (2, ()), (0, (2, 2)), TRIVIAL]
FIVE_TERM_BOUND = 1
FIVE_TERM_PINNED = {2: 240}
DEGREE0_PINNED = 2

SOLVE_CORPUS = [TRIVIAL, Z, (2, ()), Z2, (0, (3,)), (0, (4,)), (0, (2, 2)),
                (0, (6,)), (1, (2,)), (0, (2, 4))]
SOLVE_RANDOM_PER_ROUND = 15
SOLVE_MIN_ASSIGNMENTS = 1000
SOLVE_MAX_ASSIGNMENTS = 2000


def adams_exponent(n: int) -> int:
    """#{0 < s <= n : s = 0, 1, 2, 4 mod 8}: |KO~(RP^n)| = 2 ** this."""
    return sum(1 for s in range(1, n + 1) if s % 8 in (0, 1, 2, 4))


def _cyclic_2_power(exponent: int) -> str:
    return f"Z/{2 ** exponent}" if exponent else "0"


# ---------------------------------------------------------------- ktables

def ktables_round(rng, scratch) -> list[dict]:
    """Ten bott tables (N = 8..12, both theories), three rpn, and
    thom_stability(n, 0) for n = 0, 1, 2.

    Only the rpn arguments are drawn, so every round costs about the same.
    With 16 ops a round puts p90 inside the bott-12 KU ops and p50 among
    the thom and small bott ops, which cost about the same, rather than on
    the edge between two op kinds far apart in cost.
    """
    ops = []
    for top in range(8, 13):
        for theory in ("ko", "ku"):
            row = KO_ROW if theory == "ko" else KU_ROW
            want = [G.group_text(row[i % len(row)]) for i in range(top + 1)]
            ops.append(_cli(f"bott-{top}-{theory}",
                            ["bott", "--max", str(top), "--theory", theory],
                            {"groups": want}))
    for _ in range(3):
        n = rng.randint(1, 16)
        theory = rng.choice(("ko", "ku"))
        exponent = adams_exponent(n) if theory == "ko" else n // 2
        ops.append(_cli("rpn",
                        ["rpn", str(n), "--theory", theory],
                        {"group": _cyclic_2_power(exponent),
                         "order": 2 ** exponent}))
    for n in range(3):
        j = (n - 2) % 8 + 1
        ops.append({"label": f"thom-{n}", "call": ["thom_stability", n, 0],
                    "expect": {"passed": True, "shift": [[n, j]],
                               "coker": [G.group_text(KO_ROW[j % 8])],
                               "ker": ["Z" if j % 4 == 3 else "0"]}})
    rng.shuffle(ops)
    return ops


# ------------------------------------------------------------------ solve

def sequence_file(terms, maps, bound=None) -> str:
    """Render a sequence file; ``maps`` holds matrices or None (unknown)."""
    names = [f"T{k}" for k in range(len(terms))]
    lines = [f"term {n} = {G.group_text(t)}" for n, t in zip(names, terms)]
    for k, m in enumerate(maps):
        if m is None:
            rhs = "unknown"
        elif any(any(row) for row in m):
            rhs = json.dumps([list(row) for row in m])
        else:
            rhs = "[[0]]"
        lines.append(f"map m{k} : {names[k]} -> {names[k + 1]} = {rhs}")
    if len(terms) > 2:
        lines.append("check exact at " + ", ".join(names[1:-1]))
    if bound is not None:
        lines.append(f"solve bound = {bound}")
    return "\n".join(lines) + "\n"


@lru_cache(maxsize=None)
def _fixed_count(terms: tuple, bound: int) -> int:
    """Oracle count of a sequence every round repeats."""
    return G.count_exact_chains(list(terms), bound)


def _solve_op(label, terms, bound, scratch, expected_count, pinned=None):
    path = _write(scratch, label, sequence_file(terms, [None] * (len(terms) - 1),
                                                bound))
    return _cli(label, ["seq", path],
                {"terms": terms, "bound": bound, "count": expected_count,
                 "pinned": pinned,
                 "assignments": G.search_space(terms, bound)},
                exit_code=0 if expected_count else 1)


def _random_instance(rng):
    """A 3-5 term sequence with every map unknown and at least one exact
    completion, whose search space lies in the configured band."""
    while True:
        length = rng.randint(3, 5)
        bound = rng.randint(1, 2)
        terms = [rng.choice(SOLVE_CORPUS) for _ in range(length)]
        size = G.search_space(terms, bound)
        if not SOLVE_MIN_ASSIGNMENTS <= size <= SOLVE_MAX_ASSIGNMENTS:
            continue
        count = G.count_exact_chains(terms, bound)
        if count:
            return terms, bound, count


def solve_round(rng, scratch) -> list[dict]:
    """The eight degree templates, the five-term case, and random
    instances of 1e3..2e3 assignments.

    The templates are the four-term comparison sequences
    KU^-i -> KO^-i -> KO^-(i+1) -> KU^-(i-1) with the terms written out, so
    no representation work runs.  Random instances fill the middle of the
    latency order, so p50 measures plain enumeration.
    """
    ops = []
    for i in range(8):
        tail = KU_ROW[(i - 1) % 2] if i else KU_ROW[1]
        terms = [KU_ROW[i % 2], KO_ROW[i % 8], KO_ROW[(i + 1) % 8], tail]
        count = _fixed_count(tuple(terms), 2)
        ops.append(_solve_op(f"template-{i}", terms, 2, scratch, count,
                             pinned=DEGREE0_PINNED if i == 0 else None))
    ops.append(_solve_op("five-term", FIVE_TERM, FIVE_TERM_BOUND, scratch,
                         _fixed_count(tuple(FIVE_TERM), FIVE_TERM_BOUND)))
    for _ in range(SOLVE_RANDOM_PER_ROUND):
        terms, bound, count = _random_instance(rng)
        ops.append(_solve_op("random", terms, bound, scratch, count))
    rng.shuffle(ops)
    return ops


# ----------------------------------------------------------------- checks

CHAIN_LENGTH = 20
MAX_RANK = 3
MAX_TORSION = 3
TORSION_ORDERS = (2, 4, 8)


def _atoms_fit(atoms) -> bool:
    return (sum(1 for a in atoms if a == 0) <= MAX_RANK
            and sum(1 for a in atoms if a) <= MAX_TORSION)


def _random_atoms(rng, most: int) -> list[int]:
    """0..most cyclic atoms: 0 stands for Z, d for Z/d."""
    return [rng.choice((0,) + TORSION_ORDERS)
            for _ in range(rng.randint(0, most))]


def _automorphism(rng, orders):
    """A random automorphism of the group with these generator orders, as
    (P, P^-1): products of elementary moves x_i += c x_j and x_i *= u that
    respect the orders."""
    n = len(orders)
    moves = []
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            # odd units are their own inverses mod 2, 4 and 8
            unit = -1 if orders[i] == 0 else rng.choice((1, 3, 5, 7))
            moves.append(("scale", i, unit))
            continue
        c = rng.choice((-3, -2, -1, 1, 2, 3))
        di, dj = orders[i], orders[j]
        allowed = (dj == 0) if di == 0 else (dj == 0 or (c * dj) % di == 0)
        if allowed:
            moves.append(("add", i, j, c))

    def matrix(sequence, invert):
        m = [[int(a == b) for b in range(n)] for a in range(n)]
        for move in sequence:
            if move[0] == "scale":
                _kind, i, unit = move
                m[i] = [unit * v for v in m[i]]
            else:
                _kind, i, j, c = move
                c = -c if invert else c
                m[i] = [a + c * b for a, b in zip(m[i], m[j])]
        return m

    return matrix(moves, False), matrix(list(reversed(moves)), True)


def _matmul(a, b, inner):
    cols = len(b[0]) if b else 0
    return [[sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)]
            for i in range(len(a))]


def random_complex(rng, length=CHAIN_LENGTH):
    """A chain complex with known homology, in scrambled coordinates.

    Term k is X_k + H_k + Y_k with X_k a copy of Y_(k-1); the map k sends
    Y_k onto X_(k+1) and kills the rest, so the complex is exact at k iff
    H_k = 0.  Each term is then written in new coordinates by a random
    automorphism, which leaves exactness and the indices unchanged.
    Returns (terms, maps, expected checks for the interior terms).
    """
    x_part: list[int] = []
    layout = []
    for k in range(length):
        last = k == length - 1
        while True:
            h = _random_atoms(rng, 1)
            y = [] if last else _random_atoms(rng, 2)
            if _atoms_fit(x_part + h + y):
                break
        layout.append((x_part, h, y))
        x_part = y
    terms, positions = [], []
    for x, h, y in layout:
        tagged = [(a, part, t) for part, atoms in enumerate((x, h, y))
                  for t, a in enumerate(atoms)]
        tagged.sort(key=lambda item: (item[0] != 0, item[0]))
        orders = [a for a, _p, _t in tagged]
        terms.append((orders.count(0), tuple(a for a in orders if a)))
        positions.append({(p, t): idx for idx, (_a, p, t) in enumerate(tagged)})
    autos = [_automorphism(rng, G.gen_orders(t)) for t in terms]
    maps = []
    for k in range(length - 1):
        ns, nt = len(G.gen_orders(terms[k])), len(G.gen_orders(terms[k + 1]))
        d = [[0] * ns for _ in range(nt)]
        for t in range(len(layout[k][2])):
            d[positions[k + 1][(0, t)]][positions[k][(2, t)]] = 1
        p_next, _inv = autos[k + 1]
        _p, p_inv = autos[k]
        m = _matmul(_matmul(p_next, d, nt), p_inv, ns)
        t_orders = G.gen_orders(terms[k + 1])
        maps.append(tuple(tuple(v % e if e else v for v in row)
                          for row, e in zip(m, t_orders)))

    def order(atoms):
        return None if 0 in atoms else prod(atoms)

    expect = []
    for k in range(1, length - 1):
        _x, h, y = layout[k]
        expect.append({"at": f"T{k}", "exact": not h,
                       "image_index": order(h + y), "kernel_index": order(y)})
    return terms, maps, expect


def checks_round(rng, scratch) -> list[dict]:
    """Four long complexes in check mode, eight verify_classification calls
    (p + q = 6..9, both fields) and the morita and untwist verify suites.

    The fiber and thom suites are left out: they compute restriction
    multiplicities, which this workload is meant to leave alone.
    """
    ops = []
    for _ in range(4):
        terms, maps, expect = random_complex(rng)
        path = _write(scratch, "complex", sequence_file(terms, maps))
        passed = all(e["exact"] for e in expect)
        ops.append(_cli("complex", ["seq", path],
                        {"passed": passed, "checks": expect},
                        exit_code=0 if passed else 1))
    for n in range(6, 10):
        for field in ("real", "complex"):
            p = rng.randint(0, n)
            ops.append({"label": f"classification-{n}-{field}",
                        "call": ["verify_classification", p, n - p, field, n],
                        "expect": {"value": True}})
    for suite in ("morita", "untwist"):
        ops.append(_cli(f"verify-{suite}", ["verify", "--suite", suite],
                        {"suite": suite, "passed": True}))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------- helpers

ROUNDS = {"ktables": ktables_round, "solve": solve_round,
          "checks": checks_round}


def _cli(label, argv, expect, exit_code=0) -> dict:
    return {"label": label, "argv": argv + ["--format", "json"],
            "expect": expect, "exit": exit_code}


def _write(scratch: str, stem: str, text: str) -> str:
    fd, path = tempfile.mkstemp(prefix=f"{stem}-", suffix=".seq", dir=scratch)
    with os.fdopen(fd, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


# ----------------------------------------------------------------- oracle

def check(op: dict, result: dict) -> str | None:
    """None when the op's output matches its expected answer, else why."""
    if result.get("error"):
        return result["error"]
    expect = op["expect"]
    if "call" in op:
        value = result["value"]
        if op["call"][0] == "thom_stability":
            got = {k: value[k] for k in ("passed", "shift", "coker", "ker")}
            return None if got == expect else f"thom report {value}"
        return None if value is True else f"returned {value!r}"
    if result["exit"] != op["exit"]:
        return f"exit code {result['exit']}, expected {op['exit']}"
    try:
        out = json.loads(result["stdout"])
    except ValueError:
        return f"unparsable output {result['stdout'][:200]!r}"
    command = op["argv"][0]
    if command == "bott":
        return None if out["groups"] == expect["groups"] else f"table {out}"
    if command == "rpn":
        got = {"group": out["group"], "order": out["order"]}
        return None if got == expect else f"group {out}"
    if command == "verify":
        ok = out["passed"] is True and all(c["passed"] for c in out["checks"])
        return None if ok and out["suite"] == expect["suite"] else f"{out}"
    if "checks" in expect:
        got = {"passed": out["passed"], "checks": out["checks"]}
        return None if got == expect else f"check report {out}"
    return _check_solutions(expect, out)


def _check_solutions(expect: dict, out: dict) -> str | None:
    terms, bound = expect["terms"], expect["bound"]
    if expect["pinned"] is not None and expect["count"] != expect["pinned"]:
        return f"oracle count {expect['count']} != pinned {expect['pinned']}"
    sols = out["solutions"]
    if out["count"] != len(sols) or len(sols) != expect["count"]:
        return f"{out['count']} solutions, expected {expect['count']}"
    finite = all(G.is_finite(t) for t in terms)
    seen = set()
    for sol in sols:
        maps = [tuple(tuple(r) for r in sol["maps"][f"m{k}"])
                for k in range(len(terms) - 1)]
        key = tuple(maps)
        if key in seen:
            return f"duplicate solution {maps}"
        seen.add(key)
        for k, m in enumerate(maps):
            if not G.is_candidate(m, terms[k], terms[k + 1], bound):
                return f"map m{k} = {m} is outside the bound"
        for k in range(1, len(terms) - 1):
            args = (maps[k - 1], maps[k], terms[k - 1], terms[k], terms[k + 1])
            if not G.exact_at(*args):
                return f"solution {maps} is not exact at T{k}"
            if finite and not G.exact_at_elements(*args):
                return f"solution {maps} fails the element check at T{k}"
    return None


def check_pins() -> str | None:
    """The oracle reproduces the published solution counts."""
    for bound, want in FIVE_TERM_PINNED.items():
        got = G.count_exact_chains(FIVE_TERM, bound)
        if got != want:
            return f"five-term case at bound {bound}: {got} != {want}"
    return None
