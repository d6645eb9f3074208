"""Integer inputs of the CLI: every run ends in exit 0, 1 or 2.

Arguments range up to 10**7 and group literals up to 10**12, far past the
size bound, so most draws check that a refusal is clean and immediate.
"""

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cliffk.cli import main

FUZZ = settings(max_examples=25, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.function_scoped_fixture])
ARG = st.integers(0, 10**7)
LITERAL = st.integers(0, 10**12)


def exit_code(capsys, *argv) -> int:
    try:
        code = main([str(a) for a in argv])
    except SystemExit as exc:  # usage errors
        code = exc.code
    capsys.readouterr()
    return code


@FUZZ
@given(ARG, ARG)
def test_classify(capsys, p, q):
    assert exit_code(capsys, "classify", p, q) in (0, 2)


@FUZZ
@given(ARG, st.sampled_from(["ko", "ku"]))
def test_rpn(capsys, n, theory):
    assert exit_code(capsys, "rpn", n, "--theory", theory) in (0, 2)


@FUZZ
@given(ARG, st.sampled_from(["ko", "ku"]))
def test_bott(capsys, n, theory):
    assert exit_code(capsys, "bott", "--max", n, "--theory", theory) in (0, 2)


@FUZZ
@given(LITERAL, LITERAL)
def test_seq_group_literals(capsys, tmp_path_factory, rank, order):
    path = tmp_path_factory.mktemp("fuzz") / "literals.seq"
    path.write_text(f"term A = Z^{rank}\nterm B = Z/{order}\n"
                    "map f : A -> B = [[0]]\n")
    assert exit_code(capsys, "seq", path) in (0, 1, 2)


# ---------------------------------------------------------- sequence files
# Random lines of the sequence-file grammar.  Group parts and solve bounds
# are either small, so that most solvable files solve in well under a
# second, or literals far past the size bound and the search ceiling.

NAMES = ("A", "B", "C", "D", "E")
NAME = st.sampled_from(NAMES)
GROUP_PART = st.one_of(
    st.just("Z"), st.integers(0, 2).map("Z^{}".format),
    st.integers(0, 9).map("Z/{}".format),
    LITERAL.map("Z^{}".format), LITERAL.map("Z/{}".format))
GROUP = st.one_of(st.just("0"),
                  st.lists(GROUP_PART, min_size=1, max_size=2).map(" + ".join))
TERM_RHS = st.one_of(
    GROUP, st.lists(GROUP, max_size=3).map(
        lambda gs: "unknown{" + ", ".join(gs) + "}"))
ENTRY = st.one_of(st.integers(-3, 3), LITERAL)
MATRIX = st.one_of(
    st.just("unknown"), st.just("[[0]]"),
    st.lists(st.lists(ENTRY, max_size=3), max_size=3).map(str),
    st.text(alphabet="[]0123456789,- ", max_size=12))
BOUND = st.one_of(st.integers(0, 1), st.integers(10**6, 10**30))


def term_line(name, rhs):
    return f"term {name} = {rhs}"


def map_line(name, src, dst, rhs):
    return f"map {name} : {src} -> {dst} = {rhs}"


LINE = st.one_of(
    st.builds(term_line, NAME, TERM_RHS),
    st.builds(map_line, st.sampled_from(("f", "g", "h")), NAME, NAME, MATRIX),
    st.lists(NAME, min_size=1, max_size=3).map(
        lambda names: "check exact at " + ", ".join(names)),
    BOUND.map("solve bound = {}".format),
    st.text(max_size=20))


@st.composite
def chain_files(draw):
    """A file shaped like a real one: terms, then maps joining them in
    order, then optional check and solve lines, then a few stray lines."""
    n = draw(st.integers(2, 4))
    names = NAMES[:n]
    lines = [term_line(name, draw(TERM_RHS)) for name in names]
    lines += [map_line(f"m{k}", names[k], names[k + 1], draw(MATRIX))
              for k in range(n - 1)]
    if draw(st.booleans()):
        lines.append("check exact at " + ", ".join(
            draw(st.lists(st.sampled_from(names), min_size=1, max_size=3))))
    if draw(st.booleans()):
        lines.append(f"solve bound = {draw(BOUND)}")
    lines += draw(st.lists(LINE, max_size=2))
    return "\n".join(lines) + "\n"


def seq_exit_code(capsys, tmp_path_factory, text) -> int:
    path = tmp_path_factory.mktemp("fuzz") / "fuzz.seq"
    path.write_text(text, encoding="utf-8")
    return exit_code(capsys, "seq", path)


@FUZZ
@given(st.lists(LINE, min_size=1, max_size=8).map("\n".join))
# a candidate count past sys.maxsize escaped len() as OverflowError
@example("term A = Z\nterm B = Z\nmap f : A -> B = unknown\n"
         "solve bound = 10000000000000000000")
# a search space too long to print escaped the error message as ValueError
@example("term A = Z^100000\nterm B = Z\nmap f : A -> B = unknown\n"
         "solve bound = 1")
def test_seq_random_lines(capsys, tmp_path_factory, text):
    assert seq_exit_code(capsys, tmp_path_factory, text) in (0, 1, 2)


@FUZZ
@given(chain_files())
def test_seq_chain_files(capsys, tmp_path_factory, text):
    assert seq_exit_code(capsys, tmp_path_factory, text) in (0, 1, 2)
