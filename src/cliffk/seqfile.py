"""Line-oriented text format for exact-sequence instances.

Grammar (one directive per line, '#' starts a comment, CRLF tolerated):

    term NAME = GROUPEXPR | unknown{GROUPEXPR, ...}
    map NAME : SRC -> DST = [[row], [row], ...] | unknown
    check exact at NAME[, NAME ...]
    solve bound = INT

GROUPEXPR is "0", "Z", "Z^r", "Z/d", or sums of those with "+".  The
integers r, d and INT are written in the ASCII digits 0-9; other Unicode
decimal digits, which Python's int() would read, are refused.  An unknown
term lists each group once, so "Z + Z" and "Z^2" may not both appear.
Maps are declared in order and must connect consecutive terms.  A matrix
literal has one row per target generator and one column per source
generator; a matrix of all zeros is accepted in any shape, which is how maps
into or out of the trivial group are written (canonically "[[0]]").

A matrix literal is a non-empty list of non-empty lists of decimal
integers, each with an optional "-", and spaces or tabs may stand between
tokens.  In EBNF:

    MATRIX = "[" ROW { "," ROW } "]"
    ROW    = "[" INT { "," INT } "]"
    INT    = [ "-" ] ( "0" { "0" } | NONZERO-DIGIT { DIGIT } )

So "-3" is read, and "+3", "- 3", "03", "0x1", "1_0", a trailing comma and
parentheses are not.  The parse builds the file's one Sequence directly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .abgroup import (FGAbelianGroup, GroupHom, Sequence, UNKNOWN_MAP,
                      UnknownGroup, UnknownMap)
from .errors import (IllDefinedHomError, InvalidSequenceError,
                     SequenceParseError)

_TERM_RE = re.compile(r"^term\s+([A-Za-z_]\w*)\s*=\s*(.+)$")
_MAP_RE = re.compile(
    r"^map\s+([A-Za-z_]\w*)\s*:\s*([A-Za-z_]\w*)\s*->\s*([A-Za-z_]\w*)"
    r"\s*=\s*(.+)$")
_CHECK_RE = re.compile(r"^check\s+exact\s+at\s+(.+)$")
_SOLVE_RE = re.compile(r"^solve\s+bound\s*=\s*([0-9]+)$")
_CYCLIC_RE = re.compile(r"^Z/([0-9]+)$")
_POWER_RE = re.compile(r"^Z\^([0-9]+)$")
_INT = r"-?(?:0+|[1-9][0-9]*)"
_ROW = rf"[ \t]*\[[ \t]*{_INT}(?:[ \t]*,[ \t]*{_INT})*[ \t]*\]"
# a whole matrix literal, spaces and tabs allowed between tokens
_MATRIX_RE = re.compile(rf"[ \t]*\[{_ROW}(?:[ \t]*,{_ROW})*[ \t]*\][ \t]*")


def _parse_int(digits: str, lineno: int) -> int:
    try:
        return int(digits)
    except ValueError:  # past the interpreter's integer string limit
        raise SequenceParseError(lineno, f"integer of {len(digits)} digits "
                                 "is too long") from None


def _parse_group(text: str, lineno: int) -> FGAbelianGroup:
    text = text.strip()
    if text == "0":
        return FGAbelianGroup.trivial()
    rank = 0
    factors = []
    for part in text.split("+"):
        part = part.strip()
        if part == "Z":
            rank += 1
        elif m := _POWER_RE.match(part):
            rank += _parse_int(m.group(1), lineno)
        elif m := _CYCLIC_RE.match(part):
            d = _parse_int(m.group(1), lineno)
            if d < 2:
                raise SequenceParseError(lineno, f"torsion order {d} < 2")
            factors.append(d)
        else:
            raise SequenceParseError(lineno, f"cannot parse group part {part!r}")
    return FGAbelianGroup.from_invariants(rank, factors)


def _parse_matrix(text: str, lineno: int) -> list[list[int]]:
    try:
        if not _MATRIX_RE.fullmatch(text):
            raise ValueError
        # after a full match every "]" but the last two ends a row
        value = [[int(x) for x in piece.rpartition("[")[2].split(",")]
                 for piece in text.split("]")[:-2]]
    except ValueError:  # off the grammar, or past the integer string limit
        raise SequenceParseError(lineno, f"cannot parse matrix {text!r} "
                                 "into integer rows") from None
    width = len(value[0])
    if any(len(r) != width for r in value):
        raise SequenceParseError(lineno, "matrix rows have different lengths")
    return value


@dataclass(frozen=True)
class SequenceFile:
    """Parsed form of a sequence description.

    ``sequence`` carries the terms, their names, the maps and the checked
    terms as its sorted exact_at; map_names follow the maps; solve_bound is
    None when the file carries no solver directive.
    """

    sequence: Sequence
    map_names: tuple[str, ...]
    solve_bound: int | None = None


def parse_sequence_file(text: str) -> SequenceFile:
    """Parse the textual format; SequenceParseError carries the line number.

    >>> sf = parse_sequence_file(
    ...     "term A = Z\\nterm B = Z/2\\nmap p : A -> B = [[1]]\\n")
    >>> sf.sequence.names, str(sf.sequence.terms[1])
    (('A', 'B'), 'Z/2')
    """
    term_names: list[str] = []
    terms: list = []
    term_index: dict[str, int] = {}
    declared_maps: set[str] = set()
    raw_maps: list[tuple[int, str, str, str, object]] = []
    raw_checks: list[tuple[int, str]] = []
    solve_bound: int | None = None
    last_line = 0

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        last_line = lineno
        if m := _TERM_RE.match(line):
            name, rhs = m.group(1), m.group(2).strip()
            if name in term_index:
                raise SequenceParseError(lineno, f"duplicate term {name!r}")
            if rhs.startswith("unknown"):
                body = rhs[len("unknown"):].strip()
                if not (body.startswith("{") and body.endswith("}")):
                    raise SequenceParseError(
                        lineno, "unknown term needs a {candidate, ...} list")
                cands = [_parse_group(part, lineno)
                         for part in body[1:-1].split(",") if part.strip()]
                try:
                    terms.append(UnknownGroup(tuple(cands)))
                except InvalidSequenceError as exc:
                    raise SequenceParseError(lineno, str(exc)) from None
            else:
                terms.append(_parse_group(rhs, lineno))
            term_index[name] = len(term_names)
            term_names.append(name)
        elif m := _MAP_RE.match(line):
            name, src, dst, rhs = m.groups()
            if name in declared_maps:
                raise SequenceParseError(lineno, f"duplicate map {name!r}")
            declared_maps.add(name)
            rhs = rhs.strip()
            payload = UNKNOWN_MAP if rhs == "unknown" else _parse_matrix(rhs,
                                                                         lineno)
            raw_maps.append((lineno, name, src, dst, payload))
        elif m := _CHECK_RE.match(line):
            for part in m.group(1).split(","):
                part = part.strip()
                if not part:
                    raise SequenceParseError(lineno, "empty name in check list")
                raw_checks.append((lineno, part))
        elif m := _SOLVE_RE.match(line):
            if solve_bound is not None:
                raise SequenceParseError(lineno, "duplicate solve bound")
            solve_bound = _parse_int(m.group(1), lineno)
            if solve_bound < 1:
                raise SequenceParseError(lineno, "solve bound must be positive")
        else:
            raise SequenceParseError(lineno, f"cannot parse line {line!r}")

    if len(term_names) < 2:
        raise SequenceParseError(last_line, "need at least two terms")
    if len(raw_maps) != len(term_names) - 1:
        raise SequenceParseError(
            last_line, f"{len(term_names)} terms need {len(term_names) - 1} "
            f"maps, found {len(raw_maps)}")

    maps = []
    for k, (lineno, name, src, dst, payload) in enumerate(raw_maps):
        if src != term_names[k] or dst != term_names[k + 1]:
            raise SequenceParseError(
                lineno, f"map {name!r} must connect {term_names[k]!r} -> "
                f"{term_names[k + 1]!r} in declaration order")
        if isinstance(payload, UnknownMap):
            maps.append(payload)
            continue
        s_term, d_term = terms[k], terms[k + 1]
        if isinstance(s_term, UnknownGroup) or isinstance(d_term, UnknownGroup):
            raise SequenceParseError(
                lineno, f"map {name!r} has an unknown endpoint; write it as "
                "unknown")
        if all(x == 0 for row in payload for x in row):
            maps.append(GroupHom.zero(s_term, d_term))
            continue
        try:  # GroupHom checks the shape and well-definedness
            maps.append(GroupHom(s_term, d_term,
                                 tuple(tuple(r) for r in payload)))
        except IllDefinedHomError as exc:
            raise SequenceParseError(lineno, str(exc)) from None

    checked = set()
    for lineno, name in raw_checks:
        idx = term_index.get(name)
        if idx is None:
            raise SequenceParseError(lineno, f"check names unknown term {name!r}")
        if not 1 <= idx <= len(term_names) - 2:
            raise SequenceParseError(
                lineno, f"term {name!r} is not an interior position")
        checked.add(idx)

    sequence = Sequence(tuple(terms), tuple(maps), tuple(term_names),
                        tuple(sorted(checked)))
    return SequenceFile(sequence, tuple(m[1] for m in raw_maps), solve_bound)
