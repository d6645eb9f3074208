"""The argparse parser of the command line before its table parser: the
reference that tests/test_cli.py compares ``cliffk.cli._parse`` with.

``_build_parser`` is kept as it was; ``parse_args`` on it returns the
handler in ``handler``, the formats in ``format_global`` and
``format_sub``, and each command's arguments under their own names.
"""

import argparse

from cliffk.cli import (_FIELDS, _THEORIES, _cmd_bott, _cmd_classify,
                        _cmd_rpn, _cmd_seq, _cmd_verify)


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
