"""Command line surface.

Subcommands map one-to-one onto library calls; every command honors
--format text|json (accepted both before and after the subcommand, the
subcommand's value winning).  Exit codes: 0 success or all checks passing,
1 a computed check failing, 2 usage, parse, or search-space errors, and
141 (128 + SIGPIPE, as a shell reports a writer killed by a closed pipe)
when the reader closes stdout early, as ``| head`` does.

The command line is read against one table of the five commands (see
``_commands``) in one pass over the tokens, with the rules of the argparse
parser it replaced: ``--flag value`` or ``--flag=value``, a unique prefix of
a long option, ``--`` ending the options, ``-1`` and ``-`` as positionals,
the last of a repeated option winning, and ``-h``/``--help`` at the top or
after a command.  A usage error prints the usage line and ``PROG: error:``
on stderr and exits 2.  tests/cli_oracle.py keeps that argparse parser as
the reference the table parser is tested against.
"""

from __future__ import annotations

import json
import os
import sys
from types import SimpleNamespace

from .abgroup import UnknownGroup, UnknownMap, exactness_at, solve_exact
from .blades import Signature
from .errors import CliffkError
from .ktheory import (KTheory, fiber_twist_check, point_k, reduced_k_rpn,
                      thom_stability)
from .reps import untwist_split_check, verify_periodicity_iso
from .seqfile import parse_sequence_file
from .structure import ScalarField, classify

_FIELDS = {"r": ScalarField.REAL, "c": ScalarField.COMPLEX}
_THEORIES = {"ko": KTheory.KO, "ku": KTheory.KU}

_HELP = ("-h", "--help")
_REQUIRED = object()  # the default of an option that must be given
_FORMAT = ("format", ("text", "json"), None)  # every command's --format


class _UsageError(Exception):
    """A command line that the command table does not accept."""


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise _UsageError(f"{text} is negative")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise _UsageError(f"{text} is not positive")
    return value


def _commands() -> dict:
    """The command table: name -> (help line, positionals as (dest,
    converter), options as flag -> (dest, converter, default), handler).

    A converter is a function of the argument's text or a tuple of the
    texts it accepts.  An option whose default is _REQUIRED must be given.
    Every command also takes --format (_FORMAT).
    """
    theory = ("theory", tuple(sorted(_THEORIES)), "ko")
    return {
        "classify": ("matrix-algebra form of C^{p,q}",
                     (("p", _nonneg_int), ("q", _nonneg_int)),
                     {"--field": ("field", tuple(sorted(_FIELDS)), "r")},
                     _cmd_classify),
        "rpn": ("reduced K of real projective n-space",
                (("n", _positive_int),), {"--theory": theory}, _cmd_rpn),
        "bott": ("point K-group table", (),
                 {"--max": ("max_degree", _nonneg_int, 7),
                  "--theory": theory}, _cmd_bott),
        "verify": ("run a named verification suite", (),
                   {"--suite": ("suite", ("morita", "untwist", "thom",
                                          "fiber"), _REQUIRED)},
                   _cmd_verify),
        "seq": ("check or solve a sequence file", (("file", str),), {},
                _cmd_seq),
    }


def _option(token: str, flags) -> tuple | None:
    """How argparse reads one token against one parser's flags.

    None: a positional.  (flag, text): the known flag, with the text after
    its "=" or, for "-hXYZ", the text after "-h" (else None).
    (None, None): an unknown option.
    """
    if token[:1] != "-" or token == "-":
        return None
    if token in flags:
        return token, None
    name, eq, text = token.partition("=")
    if eq and name in flags:
        return name, text
    if token[1] == "-":
        matches = [flag for flag in flags if flag.startswith(name)]
        if len(matches) > 1:
            raise _UsageError(f"ambiguous option: {token} could match "
                              + ", ".join(matches))
        if matches:
            return matches[0], text if eq else None
    elif token[:2] == "-h":
        return "-h", token[2:]
    if " " in token or _negative_number(token):
        return None
    return None, None


def _negative_number(token: str) -> bool:
    """argparse's match of ``^-\\d+$|^-\\d*\\.\\d+$``, without compiling a
    regular expression in every process."""
    body = token[1:].removesuffix("\n")  # "$" also matches before a last \n
    whole, dot, frac = body.partition(".")
    return body.isdecimal() or (
        bool(dot) and frac.isdecimal() and (not whole or whole.isdecimal()))


def _events(tokens: list[str], flags):
    """Walk one parser's tokens; yield (i, flag, text), i the index of the
    next token.

    flag None: text is a positional.  flag "--": the first "--", after which
    every token is a positional.  flag in flags: that option with its
    argument (None for help).  Any other flag is an unknown option, text
    None.  As in argparse, every token before the first "--" is read before
    anything is yielded, so an ambiguous prefix there beats an earlier -h.
    """
    cut = tokens.index("--") if "--" in tokens else len(tokens)
    kinds = [_option(token, flags) for token in tokens[:cut]]
    i = 0
    while i < cut:
        kind = kinds[i]
        i += 1
        if kind is None:
            yield i, None, tokens[i - 1]
            continue
        flag, text = kind
        if flag is None:
            yield i, tokens[i - 1], None
        elif flag in _HELP:
            # "-hh" is help twice; any other text after -h or --help= is not
            rest = text.lstrip("h") if flag == "-h" and text else text
            if text is not None and (rest or not text):
                raise _UsageError("argument -h/--help: ignored explicit "
                                  f"argument {rest!r}")
            yield i, flag, None
        else:
            if text is None:
                if i == cut or kinds[i] is not None:
                    raise _UsageError(f"argument {flag}: expected one argument")
                text = tokens[i]
                i += 1
            yield i, flag, text
    if cut < len(tokens):
        yield cut + 1, "--", None
        for i in range(cut + 1, len(tokens)):
            yield i + 1, None, tokens[i]


def _convert(name: str, converter, text: str):
    if isinstance(converter, tuple):
        if text in converter:
            return text
        raise _UsageError(f"argument {name}: invalid choice: {text!r} "
                          f"(choose from {', '.join(map(repr, converter))})")
    try:
        return converter(text)
    except ValueError:
        raise _UsageError(f"argument {name}: invalid int value: "
                          f"{text!r}") from None
    except _UsageError as exc:
        raise _UsageError(f"argument {name}: {exc}") from None


def _usage(prog: str, options: dict, tail: list[str]) -> str:
    """The usage line of one parser level, (prog, options, tail)."""
    parts = [f"usage: {prog} [-h]"]
    for flag, (dest, converter, default) in options.items():
        if isinstance(converter, tuple):
            part = f"{flag} {{{','.join(converter)}}}"
        else:
            part = f"{flag} {dest.upper()}"
        parts.append(part if default is _REQUIRED else f"[{part}]")
    return " ".join(parts + tail)


def _help(level: tuple, text: str):
    print(f"{_usage(*level)}\n\n{text}")
    raise SystemExit(0)


def _refuse(level: tuple, message):
    print(f"{_usage(*level)}\n{level[0]}: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _parse(argv: list[str]):
    """(handler, args, format) for argv.  Help raises SystemExit(0) and a
    usage error SystemExit(2), at the token where argparse would stop."""
    table = _commands()
    # (prog, options, positional names) of the level being read, for usage
    level = top = ("cliffk", {"--format": _FORMAT},
                   ["{" + ",".join(table) + "}", "..."])
    top_format = command = None
    extras = []
    try:
        for i, flag, text in _events(argv, (*_HELP, "--format")):
            if flag is None:
                command = text
                break
            if flag == "--":
                # argparse takes a "--" before the command as its name
                command = "--" if i < len(argv) else None
                break
            if flag in _HELP:
                lines = [f"  {name:9s} {entry[0]}"
                         for name, entry in table.items()]
                _help(top, "exact Clifford-algebra and point K-theory "
                      "calculator\n\ncommands:\n" + "\n".join(lines)
                      + "\n\n--format may also follow the command, and "
                      "then wins")
            elif flag == "--format":
                top_format = _convert(flag, _FORMAT[1], text)
            else:
                extras.append(flag)
        if command is None:
            raise _UsageError("the following arguments are required: command")
        if command not in table:
            raise _UsageError(
                f"argument command: invalid choice: {command!r} (choose "
                f"from {', '.join(map(repr, table))})")

        help_line, positionals, options, handler = table[command]
        options = {**options, "--format": _FORMAT}
        level = (f"cliffk {command}", options,
                 [dest for dest, _c in positionals])
        args = {dest: default for dest, _c, default in options.values()}
        pending = list(positionals)
        # as in argparse, a "--" is unrecognized unless a positional was
        # read after the last option
        read_since_option = separated = False
        for _i, flag, text in _events(argv[i:], (*_HELP, *options)):
            if flag is None:
                if pending:
                    dest, converter = pending.pop(0)
                    args[dest] = _convert(dest, converter, text)
                    read_since_option = True
                else:
                    extras.append(text)
                continue
            if flag == "--":
                separated = True
                continue
            read_since_option = False
            if flag in _HELP:
                _help(level, help_line)
            elif flag in options:
                dest, converter, _default = options[flag]
                args[dest] = _convert(flag, converter, text)
            else:
                extras.append(flag)
        missing = [dest for dest, _c in pending] + [
            flag for flag, (dest, _c, _d) in options.items()
            if args[dest] is _REQUIRED]
        if missing:
            raise _UsageError("the following arguments are required: "
                              + ", ".join(missing))
        if separated and not read_since_option:
            extras.append("--")
    except _UsageError as exc:
        _refuse(level, exc)
    if extras:
        _refuse(top, "unrecognized arguments: " + " ".join(extras))
    fmt = args.pop("format") or top_format or "text"
    return handler, SimpleNamespace(**args), fmt


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
    # top degree first: an over-bound table fails before the rest is built
    groups = [point_k(i, theory) for i in range(args.max_degree, -1, -1)][::-1]
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
        with open(args.file, "rb") as fh:
            text = fh.read().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {args.file}: {exc}", file=sys.stderr)
        return 2
    sf = parse_sequence_file(text)
    seq, names = sf.sequence, sf.sequence.names
    unknown_terms = [i for i, t in enumerate(seq.terms)
                     if isinstance(t, UnknownGroup)]
    unknown_maps = [i for i, m in enumerate(seq.maps)
                    if isinstance(m, UnknownMap)]

    if unknown_terms or unknown_maps:
        if sf.solve_bound is None:
            print(f"error: {args.file} has unknowns but no 'solve bound' "
                  "directive", file=sys.stderr)
            return 2
        solutions = solve_exact(seq, sf.solve_bound)
        if fmt == "json":
            print(json.dumps({
                "bound": sf.solve_bound, "count": len(solutions),
                "solutions": [{
                    "terms": {names[i]: str(sol.terms[i])
                              for i in unknown_terms},
                    # tuples encode as the same JSON arrays as lists
                    "maps": {sf.map_names[i]: sol.maps[i].matrix
                             for i in unknown_maps},
                } for sol in solutions],
            }, sort_keys=True))
        else:
            plural = "" if len(solutions) == 1 else "s"
            print(f"solve bound = {sf.solve_bound}: "
                  f"{len(solutions)} solution{plural}")
            for k, sol in enumerate(solutions, 1):
                parts = [f"{names[i]} = {sol.terms[i]}"
                         for i in unknown_terms]
                parts += [f"{sf.map_names[i]} = {_matrix_text(sol.maps[i])}"
                          for i in unknown_maps]
                print(f"solution {k}: " + ", ".join(parts))
        return 0 if solutions else 1

    positions = seq.exact_at or range(1, len(names) - 1)
    results = [(names[i], *exactness_at(seq, i)) for i in positions]
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
    handler, args, fmt = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        return handler(args, fmt)
    except CliffkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    try:
        try:
            code = main()
        except SystemExit as exc:
            # help and usage errors leave main this way; what help printed
            # is still in the buffer for the guarded flush
            code = exc.code
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone; point stdout at /dev/null so the flush at
        # interpreter exit does not fail on the rest of the buffer
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        code = 141
    sys.exit(code)
