"""Sequence file format: parsing, rendering, and the shipped example."""

import ast
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffk import seqfile
from cliffk.abgroup import (
    FGAbelianGroup,
    GroupHom,
    UnknownGroup,
    UnknownMap,
    exactness_at,
    solve_exact,
)
from cliffk.cli import main
from cliffk.errors import SequenceParseError
from cliffk.seqfile import SequenceFile, parse_sequence_file

SHIPPED = Path(__file__).resolve().parent.parent / "sequences" / "bott_degree0.seq"

BASIC = """\
term A = Z
term B = Z
term C = Z/2
term D = 0
map f : A -> B = [[2]]
map g : B -> C = [[1]]
map h : C -> D = [[0]]
check exact at B, C
"""


def render(sf: SequenceFile) -> str:
    """Canonical text of a parsed file; parsing it gives sf back."""
    lines = []
    for name, term in zip(sf.term_names, sf.terms):
        if isinstance(term, UnknownGroup):
            inner = ", ".join(str(g) for g in term.candidates)
            lines.append(f"term {name} = unknown{{{inner}}}")
        else:
            lines.append(f"term {name} = {term}")
    for i, (name, m) in enumerate(zip(sf.map_names, sf.maps)):
        src, dst = sf.term_names[i], sf.term_names[i + 1]
        if isinstance(m, UnknownMap):
            rhs = "unknown"
        elif not m.matrix or not m.matrix[0]:
            rhs = "[[0]]"
        else:
            rhs = repr([list(r) for r in m.matrix])
        lines.append(f"map {name} : {src} -> {dst} = {rhs}")
    if sf.check_at:
        lines.append("check exact at " + ", ".join(sf.check_at))
    if sf.solve_bound is not None:
        lines.append(f"solve bound = {sf.solve_bound}")
    return "\n".join(lines) + "\n"


class TestParsing:
    def test_basic_file(self):
        sf = parse_sequence_file(BASIC)
        assert sf.term_names == ("A", "B", "C", "D")
        assert sf.terms == (
            FGAbelianGroup.free(1), FGAbelianGroup.free(1),
            FGAbelianGroup.from_invariants(0, (2,)), FGAbelianGroup.trivial())
        assert sf.map_names == ("f", "g", "h")
        assert sf.maps[0].matrix == ((2,),)
        assert sf.check_at == ("B", "C")
        assert sf.solve_bound is None
        assert not sf.has_unknowns

    def test_group_expressions(self):
        text = ("term A = Z^2 + Z/2 + Z/4\n"
                "term B = Z/3 + Z/2\n"
                "map f : A -> B = [[0]]\n")
        sf = parse_sequence_file(text)
        assert sf.terms[0] == FGAbelianGroup.from_invariants(2, (2, 4))
        # non-chain factor lists canonicalize on the way in
        assert sf.terms[1] == FGAbelianGroup.from_invariants(0, (6,))

    def test_comments_blank_lines_and_crlf(self):
        text = ("# leading comment\r\n"
                "term A = Z  # trailing comment\r\n"
                "\r\n"
                "term B = Z/2\r\n"
                "map f : A -> B = [[1]]  # the surjection\r\n")
        sf = parse_sequence_file(text)
        assert sf.term_names == ("A", "B")
        assert sf.maps[0].matrix == ((1,),)

    def test_unknown_map_and_term(self):
        text = ("term A = Z\n"
                "term B = unknown{0, Z, Z/2}\n"
                "term C = 0\n"
                "map f : A -> B = unknown\n"
                "map g : B -> C = unknown\n"
                "check exact at B\n"
                "solve bound = 2\n")
        sf = parse_sequence_file(text)
        assert sf.has_unknowns
        assert isinstance(sf.terms[1], UnknownGroup)
        assert [str(g) for g in sf.terms[1].candidates] == ["0", "Z", "Z/2"]
        assert isinstance(sf.maps[0], UnknownMap)
        assert sf.solve_bound == 2

    def test_zero_matrix_any_shape(self):
        text = ("term A = Z^2\n"
                "term B = 0\n"
                "map f : A -> B = [[0, 0]]\n")
        sf = parse_sequence_file(text)
        assert sf.maps[0] == GroupHom.zero(FGAbelianGroup.free(2),
                                           FGAbelianGroup.trivial())

    def test_checks_deduplicate_and_sort_by_position(self):
        text = BASIC.replace("check exact at B, C", "check exact at C, B, C")
        sf = parse_sequence_file(text)
        assert sf.check_at == ("B", "C")

    def test_to_sequence_positions(self):
        seq = parse_sequence_file(BASIC).to_sequence()
        assert seq.exact_at == (1, 2)
        assert exactness_at(seq, 1)[0]
        assert exactness_at(seq, 2)[0]


class TestParseErrors:
    @pytest.mark.parametrize("text,line,fragment", [
        ("term A = Z\nterm A = Z\nmap f : A -> A = [[1]]\n", 2, "duplicate term"),
        ("term A = Z\nterm B = Z\nmap f : A -> B = [[1]]\n"
         "map f : A -> B = [[1]]\n", 4, "duplicate map"),
        ("term A = Z\nterm B = Z\nmap f : B -> A = [[1]]\n", 3,
         "declaration order"),
        ("term A = Q\nterm B = Z\nmap f : A -> B = [[1]]\n", 1,
         "cannot parse group"),
        ("term A = Z/1\nterm B = Z\nmap f : A -> B = [[1]]\n", 1,
         "torsion order"),
        ("term A = Z\nterm B = Z\nmap f : A -> B = [[1], [2]\n", 3,
         "cannot parse matrix"),
        ("term A = Z\nterm B = Z\nmap f : A -> B = [[1], [1, 2]]\n", 3,
         "different lengths"),
        ("term A = Z\nterm B = Z\nmap f : A -> B = [[True]]\n", 3,
         "integer rows"),
        ("term A = Z\nterm B = Z^2\nmap f : A -> B = [[1]]\n", 3,
         "must be 2 x 1"),
        ("term A = Z/2\nterm B = Z\nmap f : A -> B = [[1]]\n", 3,
         "maps outside its order"),
        ("term A = Z\nterm B = unknown{Z}\nmap f : A -> B = [[1]]\n", 3,
         "unknown endpoint"),
        ("term A = Z\nterm B = Z\nmap f : A -> B = [[1]]\n"
         "check exact at X\n", 4, "unknown term"),
        ("term A = Z\nterm B = Z\nmap f : A -> B = [[1]]\n"
         "check exact at A\n", 4, "not an interior position"),
        ("term A = Z\nterm B = Z\nmap f : A -> B = [[1]]\n"
         "solve bound = 0\n", 4, "must be positive"),
        ("term A = Z\nterm B = Z\nmap f : A -> B = [[1]]\n"
         "solve bound = 2\nsolve bound = 2\n", 5, "duplicate solve"),
        ("wibble\n", 1, "cannot parse line"),
        ("term A = Z\n", 1, "at least two terms"),
        ("term A = Z\nterm B = Z\n", 2, "found 0"),
        ("term A = unknown{}\nterm B = Z\nmap f : A -> B = unknown\n", 1,
         "at least one candidate"),
    ])
    def test_line_numbers_and_messages(self, text, line, fragment):
        with pytest.raises(SequenceParseError) as exc:
            parse_sequence_file(text)
        assert exc.value.line == line
        assert fragment in exc.value.message

    # int() reads any Unicode decimal digit; the grammar admits only 0-9
    @pytest.mark.parametrize("last,line,fragment", [
        ("term B = Z/\u0663", 2, "cannot parse group part"),
        ("term B = Z^\u0662", 2, "cannot parse group part"),
        ("term B = Z\nsolve bound = \u0661", 3, "cannot parse line"),
    ], ids=["cyclic", "power", "solve"])
    def test_non_ascii_digits_refused(self, last, line, fragment, tmp_path,
                                      capsys):
        text = f"term A = Z\n{last}\nmap f : A -> B = unknown\n"
        with pytest.raises(SequenceParseError) as exc:
            parse_sequence_file(text)
        assert exc.value.line == line
        assert fragment in exc.value.message
        path = tmp_path / "digits.seq"
        path.write_text(text, encoding="utf-8")
        assert main(["seq", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: line {line}:")


@st.composite
def _grammar_literals(draw):
    """A matrix literal of the documented grammar, blanks between tokens.

    A zero entry is written in one of its four forms ("0", "-0", "00",
    "-000"); the other entries as str writes them."""
    height, width = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    values = draw(st.lists(st.integers(-10 ** 25, 10 ** 25),
                           min_size=height * width, max_size=height * width))
    rng = draw(st.randoms(use_true_random=False))

    def blank():
        return rng.choice(["", "", " ", "\t", "  ", " \t "])

    def listed(items):
        return (blank() + "[" + ("," + blank()).join(
            blank() + item + blank() for item in items) + "]" + blank())

    entries = [str(v) if v else rng.choice(["0", "-0", "00", "-000"])
               for v in values]
    return listed([listed(entries[k:k + width])
                   for k in range(0, len(entries), width)])


# the tokens of the exhaustive comparison with ast.literal_eval
_TOKENS = ["[", "]", ",", "-", "+", "1", "0", "x", "_", "True", "1.5", " "]


def _short_strings():
    """Every string of up to 5 tokens; of the 6-token strings, every one
    whose first token after blanks is "[" (no other start can give
    literal_eval a list) and a seeded sample of 20,000 of the rest."""
    level = [""]
    for _ in range(5):
        yield from level
        level = [p + tok for p in level for tok in _TOKENS]
    yield from level
    for p in level:
        if p.lstrip(" ")[:1] in ("[", ""):
            for tok in _TOKENS:
                yield p + tok
    rng = random.Random(13)
    for _ in range(20000):
        yield "".join(rng.choices(_TOKENS, k=6))


def _read(text):
    try:
        return seqfile._parse_matrix(text, 1)
    except SequenceParseError:
        return None


class TestMatrixReader:
    """The reader of matrix literals against ast.literal_eval, which read
    them before."""

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(_grammar_literals())
    def test_grammar_literals_read_as_python_does(self, text):
        value = _read(text)
        assert value is not None, text
        assert repr(value) == repr(ast.literal_eval(text))

    def test_short_strings_accepted_only_where_python_agrees(self):
        accepted = 0
        for text in _short_strings():
            # _parse_matrix refuses whatever _matrix_rows cannot split
            if seqfile._matrix_rows(text) is None:
                continue
            value = _read(text)
            if value is None:
                continue
            accepted += 1
            assert repr(value) == repr(ast.literal_eval(text)), text
        assert accepted == 20

    @pytest.mark.parametrize("rhs", [
        "[[+3]]", "[[0x1]]", "[[1_0]]", "[[1,]]", "[[1],]", "[[(1)]]",
        "([1],)", "[(1,)]", "[[- 3]]", "[[-\t3]]", "[[03]]", "[[--3]]",
        "[[1 2]]", "[[1]] [[2]]", "[]", "[[]]", "[1]", "[[1]",
    ])
    def test_refused_forms(self, rhs):
        text = f"term A = Z\nterm B = Z\nmap f : A -> B = {rhs}\n"
        with pytest.raises(SequenceParseError) as exc:
            parse_sequence_file(text)
        assert exc.value.line == 3

    def test_blanks_and_signs(self):
        assert seqfile._parse_matrix("\t[ [-0 ,\t1] ,[00, -12] ] ", 1) == \
            [[0, 1], [0, -12]]

    def test_integer_past_the_digit_limit(self):
        digits = "7" * (sys.get_int_max_str_digits() + 1)
        text = f"term A = Z\nterm B = Z\nmap f : A -> B = [[{digits}]]\n"
        with pytest.raises(SequenceParseError) as exc:
            parse_sequence_file(text)
        assert exc.value.line == 3
        assert "cannot parse matrix" in exc.value.message


class TestRendering:
    def test_round_trip_basic(self):
        sf = parse_sequence_file(BASIC)
        assert parse_sequence_file(render(sf)) == sf

    def test_round_trip_with_unknowns(self):
        text = ("term A = Z\n"
                "term B = unknown{0, Z + Z/2}\n"
                "term C = 0\n"
                "map f : A -> B = unknown\n"
                "map g : B -> C = unknown\n"
                "check exact at B\n"
                "solve bound = 3\n")
        sf = parse_sequence_file(text)
        rendered = render(sf)
        assert "term B = unknown{0, Z + Z/2}" in rendered
        assert "map f : A -> B = unknown" in rendered
        assert "solve bound = 3" in rendered
        assert parse_sequence_file(rendered) == sf

    def test_degenerate_matrices_render_as_zero(self):
        text = ("term A = Z\n"
                "term B = 0\n"
                "term C = Z/2\n"
                "map f : A -> B = [[0]]\n"
                "map g : B -> C = [[0]]\n")
        sf = parse_sequence_file(text)
        rendered = render(sf)
        assert "map f : A -> B = [[0]]" in rendered
        assert "map g : B -> C = [[0]]" in rendered
        assert parse_sequence_file(rendered) == sf


class TestShippedFile:
    def test_parses_and_is_exact(self):
        sf = parse_sequence_file(SHIPPED.read_text())
        assert sf.term_names == ("KU0", "KO0", "KOm1", "KUm1")
        assert sf.check_at == ("KO0", "KOm1")
        assert not sf.has_unknowns
        seq = sf.to_sequence()
        assert all(exactness_at(seq, pos)[0] for pos in seq.exact_at)

    def test_matches_solver_output(self):
        # the shipped assignment is one of the two the solver finds when the
        # maps are left unknown
        sf = parse_sequence_file(SHIPPED.read_text())
        unknown = SequenceFile(sf.term_names, sf.terms, sf.map_names,
                               (UnknownMap(), UnknownMap(), UnknownMap()),
                               sf.check_at, 2)
        sols = solve_exact(unknown.to_sequence(), bound=2)
        shipped_matrices = tuple(m.matrix for m in sf.maps)
        assert shipped_matrices in [tuple(m.matrix for m in s.maps)
                                    for s in sols]
