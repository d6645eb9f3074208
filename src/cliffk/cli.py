"""Command line surface.

Subcommands map one-to-one onto library calls; every command honors
--format text|json (accepted both before and after the subcommand, the
subcommand's value winning).  Exit codes: 0 success or all checks passing,
1 a computed check failing, 2 usage, parse, or search-space errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .abgroup import (UnknownGroup, UnknownMap, check_exact,
                      exactness_indices, solve_exact)
from .blades import Signature
from .errors import CliffkError
from .ktheory import (KTheory, fiber_twist_check, point_k, reduced_k_rpn,
                      thom_stability)
from .reps import untwist_split_check, verify_periodicity_iso
from .scalars import ScalarField
from .seqfile import parse_sequence_file
from .structure import classify

_FIELDS = {"r": ScalarField.REAL, "c": ScalarField.COMPLEX}
_THEORIES = {"ko": KTheory.KO, "ku": KTheory.KU}


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{text} is negative")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text} is not positive")
    return value


def _add_format(parser, dest):
    parser.add_argument("--format", dest=dest, choices=("text", "json"),
                        default=None, help="output format")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cliffk",
        description="exact Clifford-algebra and point K-theory calculator")
    _add_format(parser, "format_global")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="matrix-algebra form of C^{p,q}")
    p.add_argument("p", type=_nonneg_int)
    p.add_argument("q", type=_nonneg_int)
    p.add_argument("--field", choices=sorted(_FIELDS), default="r")
    _add_format(p, "format_sub")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("rpn", help="reduced K of real projective n-space")
    p.add_argument("n", type=_positive_int)
    p.add_argument("--theory", choices=sorted(_THEORIES), default="ko")
    _add_format(p, "format_sub")
    p.set_defaults(handler=_cmd_rpn)

    p = sub.add_parser("bott", help="point K-group table")
    p.add_argument("--max", dest="max_degree", type=_nonneg_int, default=7)
    p.add_argument("--theory", choices=sorted(_THEORIES), default="ko")
    _add_format(p, "format_sub")
    p.set_defaults(handler=_cmd_bott)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("--suite", required=True,
                   choices=("morita", "untwist", "thom", "fiber"))
    _add_format(p, "format_sub")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("seq", help="check or solve a sequence file")
    p.add_argument("file")
    _add_format(p, "format_sub")
    p.set_defaults(handler=_cmd_seq)

    return parser


def _cmd_classify(args, fmt: str) -> int:
    sig = Signature(args.p, args.q)
    field = _FIELDS[args.field]
    desc = classify(sig, field)
    if fmt == "json":
        print(json.dumps({
            "p": sig.p, "q": sig.q, "field": field.value,
            "descriptor": str(desc), "factors": desc.factors,
            "matrix_size": desc.matrix_size, "ring": desc.ring.name,
            "dim": desc.dim_over_field,
        }, sort_keys=True))
    else:
        print(f"{sig} over {field.value}: {desc} (dim {desc.dim_over_field})")
    return 0


def _cmd_rpn(args, fmt: str) -> int:
    theory = _THEORIES[args.theory]
    group = reduced_k_rpn(args.n, theory)
    if fmt == "json":
        print(json.dumps({
            "n": args.n, "theory": theory.value,
            "group": str(group), "order": group.order(),
        }, sort_keys=True))
    else:
        print(group)
    return 0


def _cmd_bott(args, fmt: str) -> int:
    theory = _THEORIES[args.theory]
    groups = [point_k(i, theory) for i in range(args.max_degree + 1)]
    if fmt == "json":
        print(json.dumps({
            "theory": theory.value, "max": args.max_degree,
            "groups": [str(g) for g in groups],
        }, sort_keys=True))
    else:
        label = theory.name
        for i, g in enumerate(groups):
            print(f"{label}^-{i}: {g}")
    return 0


def _verify_items(suite: str) -> list[tuple[str, bool]]:
    if suite == "morita":
        return [(f"m={m}", verify_periodicity_iso(m)) for m in range(6)]
    if suite == "untwist":
        return [(f"n={n}", untwist_split_check(n)) for n in range(5)]
    if suite == "thom":
        return [(f"n={n}", bool(thom_stability(n, 2))) for n in range(3)]
    report = fiber_twist_check()
    return [(c.name, c.passed) for c in report.checks]


def _cmd_verify(args, fmt: str) -> int:
    items = _verify_items(args.suite)
    passed = all(ok for _name, ok in items)
    if fmt == "json":
        print(json.dumps({
            "suite": args.suite, "passed": passed,
            "checks": [{"name": n, "passed": ok} for n, ok in items],
        }, sort_keys=True))
    else:
        for name, ok in items:
            print(f"{name}: {'pass' if ok else 'FAIL'}")
        print(f"suite {args.suite}: {'pass' if passed else 'FAIL'}")
    return 0 if passed else 1


def _matrix_text(hom) -> str:
    if not hom.matrix or not hom.matrix[0]:
        return "[[0]]"
    return repr([list(r) for r in hom.matrix])


def _cmd_seq(args, fmt: str) -> int:
    try:
        with open(args.file, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {args.file}: {exc}", file=sys.stderr)
        return 2
    sf = parse_sequence_file(text)
    seq = sf.to_sequence()

    if sf.has_unknowns:
        if sf.solve_bound is None:
            print(f"error: {args.file} has unknowns but no 'solve bound' "
                  "directive", file=sys.stderr)
            return 2
        solutions = solve_exact(seq, sf.solve_bound)
        unknown_terms = [i for i, t in enumerate(sf.terms)
                         if isinstance(t, UnknownGroup)]
        unknown_maps = [i for i, m in enumerate(sf.maps)
                        if isinstance(m, UnknownMap)]
        if fmt == "json":
            print(json.dumps({
                "bound": sf.solve_bound, "count": len(solutions),
                "solutions": [{
                    "terms": {sf.term_names[i]: str(sol.terms[i])
                              for i in unknown_terms},
                    "maps": {sf.map_names[i]: [list(r)
                                               for r in sol.maps[i].matrix]
                             for i in unknown_maps},
                } for sol in solutions],
            }, sort_keys=True))
        else:
            plural = "" if len(solutions) == 1 else "s"
            print(f"solve bound = {sf.solve_bound}: "
                  f"{len(solutions)} solution{plural}")
            for k, sol in enumerate(solutions, 1):
                parts = [f"{sf.term_names[i]} = {sol.terms[i]}"
                         for i in unknown_terms]
                parts += [f"{sf.map_names[i]} = {_matrix_text(sol.maps[i])}"
                          for i in unknown_maps]
                print(f"solution {k}: " + ", ".join(parts))
        return 0 if solutions else 1

    positions = list(sf.check_at)
    if not positions:
        positions = [sf.term_names[i] for i in range(1, len(sf.term_names) - 1)]
    results = []
    for name in positions:
        at = sf.term_names.index(name)
        ok = check_exact(seq, at)
        img_idx, ker_idx = exactness_indices(seq, at)
        results.append((name, ok, img_idx, ker_idx))
    passed = all(ok for _n, ok, _i, _k in results)
    if fmt == "json":
        print(json.dumps({
            "passed": passed,
            "checks": [{"at": name, "exact": ok,
                        "image_index": img, "kernel_index": ker}
                       for name, ok, img, ker in results],
        }, sort_keys=True))
    else:
        for name, ok, img, ker in results:
            if ok:
                print(f"exact at {name}")
            else:
                img_s = "inf" if img is None else img
                ker_s = "inf" if ker is None else ker
                print(f"not exact at {name}: image index {img_s}, "
                      f"kernel index {ker_s}")
        if passed:
            print("exact at all checked positions")
    return 0 if passed else 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    fmt = args.format_sub or args.format_global or "text"
    try:
        return args.handler(args, fmt)
    except CliffkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())
