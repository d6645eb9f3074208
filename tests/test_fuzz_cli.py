"""Integer inputs of the CLI: every run ends in exit 0, 1 or 2.

Arguments range up to 10**7 and group literals up to 10**12, far past the
size bound, so most draws check that a refusal is clean and immediate.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cliffk.cli import main

FUZZ = settings(max_examples=25, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.function_scoped_fixture])
ARG = st.integers(0, 10**7)
LITERAL = st.integers(0, 10**12)


def exit_code(capsys, *argv) -> int:
    try:
        code = main([str(a) for a in argv])
    except SystemExit as exc:  # argparse usage errors
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
