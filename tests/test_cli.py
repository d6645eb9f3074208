"""Command line behavior: output text, JSON shape, exit codes."""

import argparse
import io
import itertools
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cli_oracle
from cliffk import abgroup, cli
from cliffk.cli import main

SEQUENCES = Path(__file__).resolve().parent.parent / "sequences"

TEMPLATE = """\
term KU0 = Z
term KO0 = Z
term KOm1 = Z/2
term KUm1 = 0
map r : KU0 -> KO0 = unknown
map eta : KO0 -> KOm1 = unknown
map c : KOm1 -> KUm1 = unknown
check exact at KO0, KOm1
solve bound = 2
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def exits(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


class TestClassify:
    def test_text(self, capsys):
        code, out, _err = run(capsys, "classify", "3", "0")
        assert code == 0
        assert out == "C^{3,0} over real: M_1(H) (+) M_1(H) (dim 8)\n"

    def test_complex_field(self, capsys):
        code, out, _err = run(capsys, "classify", "0", "3", "--field", "c")
        assert code == 0
        assert out == "C^{0,3} over complex: M_2(C) (+) M_2(C) (dim 8)\n"

    def test_json(self, capsys):
        code, out, _err = run(capsys, "--format", "json", "classify", "2", "0")
        assert code == 0
        data = json.loads(out)
        assert data == {"p": 2, "q": 0, "field": "real",
                        "descriptor": "M_1(H)", "factors": 1,
                        "matrix_size": 1, "ring": "H", "dim": 4}

    def test_subcommand_format_wins(self, capsys):
        _code, out, _err = run(capsys, "--format", "text", "classify",
                               "2", "0", "--format", "json")
        json.loads(out)

    def test_json_bytes_stable(self, capsys):
        _c, out1, _e = run(capsys, "classify", "5", "3", "--format", "json")
        _c, out2, _e = run(capsys, "classify", "5", "3", "--format", "json")
        assert out1 == out2

    def test_negative_arg_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "-1", "0"])
        assert exc.value.code == 2


class TestRpn:
    def test_text(self, capsys):
        code, out, _err = run(capsys, "rpn", "4")
        assert (code, out) == (0, "Z/8\n")

    def test_complex_theory(self, capsys):
        code, out, _err = run(capsys, "rpn", "3", "--theory", "ku")
        assert (code, out) == (0, "Z/2\n")

    def test_json(self, capsys):
        _code, out, _err = run(capsys, "rpn", "4", "--format", "json")
        assert json.loads(out) == {"n": 4, "theory": "ko",
                                   "group": "Z/8", "order": 8}

    def test_zero_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["rpn", "0"])
        assert exc.value.code == 2


class TestBott:
    def test_default_row(self, capsys):
        code, out, _err = run(capsys, "bott")
        assert code == 0
        assert out.splitlines() == [
            "KO^-0: Z", "KO^-1: Z/2", "KO^-2: Z/2", "KO^-3: 0",
            "KO^-4: Z", "KO^-5: 0", "KO^-6: 0", "KO^-7: 0",
        ]

    def test_complex_row(self, capsys):
        code, out, _err = run(capsys, "bott", "--max", "3", "--theory", "ku")
        assert code == 0
        assert out.splitlines() == ["KU^-0: Z", "KU^-1: 0",
                                    "KU^-2: Z", "KU^-3: 0"]

    def test_json(self, capsys):
        _code, out, _err = run(capsys, "bott", "--max", "1",
                               "--format", "json")
        assert json.loads(out) == {"theory": "ko", "max": 1,
                                   "groups": ["Z", "Z/2"]}


class TestVerify:
    @pytest.mark.parametrize("suite", ["morita", "untwist", "thom", "fiber"])
    def test_suites_pass(self, capsys, suite):
        code, out, _err = run(capsys, "verify", "--suite", suite)
        assert code == 0
        lines = out.splitlines()
        assert lines[-1] == f"suite {suite}: pass"
        assert all(line.endswith(": pass") for line in lines[:-1])

    def test_fiber_check_names(self, capsys):
        _code, out, _err = run(capsys, "verify", "--suite", "fiber",
                               "--format", "json")
        data = json.loads(out)
        assert data["passed"] is True
        assert [c["name"] for c in data["checks"]] == [
            "complex-fiber-modules", "source-equivalence",
            "target-equivalence", "k0-square-commutes"]

    def test_unknown_suite_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "everything"])
        assert exc.value.code == 2


class TestSeqCheck:
    def test_shipped_file(self, capsys):
        code, out, _err = run(capsys, "seq", "sequences/bott_degree0.seq")
        assert code == 0
        assert out.splitlines() == [
            "exact at KO0",
            "exact at KOm1",
            "exact at all checked positions",
        ]

    def test_failing_map_reports_indices(self, capsys, tmp_path):
        text = ("term KU0 = Z\nterm KO0 = Z\nterm KOm1 = Z/2\nterm KUm1 = 0\n"
                "map r : KU0 -> KO0 = [[4]]\n"
                "map eta : KO0 -> KOm1 = [[1]]\n"
                "map c : KOm1 -> KUm1 = [[0]]\n"
                "check exact at KO0, KOm1\n")
        path = tmp_path / "broken.seq"
        path.write_text(text)
        code, out, _err = run(capsys, "seq", str(path))
        assert code == 1
        lines = out.splitlines()
        assert "not exact at KO0: image index 4, kernel index 2" in lines
        assert "exact at KOm1" in lines
        assert "exact at all checked positions" not in lines

    def test_unchecked_file_defaults_to_all_interior(self, capsys, tmp_path):
        text = ("term A = Z\nterm B = Z\nterm C = 0\n"
                "map f : A -> B = [[1]]\nmap g : B -> C = [[0]]\n")
        path = tmp_path / "plain.seq"
        path.write_text(text)
        code, out, _err = run(capsys, "seq", str(path))
        assert code == 0
        assert out.splitlines() == ["exact at B",
                                    "exact at all checked positions"]

    def test_infinite_index_rendering(self, capsys, tmp_path):
        text = ("term A = 0\nterm B = Z\nterm C = 0\n"
                "map f : A -> B = [[0]]\nmap g : B -> C = [[0]]\n")
        path = tmp_path / "inf.seq"
        path.write_text(text)
        code, out, _err = run(capsys, "seq", str(path))
        assert code == 1
        assert "not exact at B: image index inf, kernel index 1" in out

    def test_json(self, capsys):
        _code, out, _err = run(capsys, "seq", "sequences/bott_degree0.seq",
                               "--format", "json")
        data = json.loads(out)
        assert data["passed"] is True
        assert [c["at"] for c in data["checks"]] == ["KO0", "KOm1"]
        assert all(c["exact"] for c in data["checks"])

    @pytest.mark.parametrize("text, hnfs", [
        ((SEQUENCES / "bott_degree0.seq").read_text(), 3),
        # 20 terms, 19 maps, checked at all 18 interior terms
        ("".join(f"term T{i} = Z\n" for i in range(20))
         + "".join(f"map m{i} : T{i} -> T{i + 1} = [[{i % 2}]]\n"
                   for i in range(19)), 19),
        ((SEQUENCES / "five_term.seq").read_text(), 667),
    ], ids=["bott_degree0", "chain20", "five_term"])
    def test_one_hnf_per_map(self, capsys, monkeypatch, tmp_path, text,
                             hnfs):
        # a map checked on both sides gets its image and kernel keys off one
        # HNF; the first map and the solver's map into B need image keys only
        calls = []
        hnf = abgroup._hnf
        monkeypatch.setattr(abgroup, "_hnf",
                            lambda *a: calls.append(1) or hnf(*a))
        path = tmp_path / "chain.seq"
        path.write_text(text)
        code, _out, _err = run(capsys, "seq", str(path))
        assert code == 0
        assert len(calls) == hnfs


class TestSeqSolve:
    def test_solves_template(self, capsys, tmp_path):
        path = tmp_path / "template.seq"
        path.write_text(TEMPLATE)
        code, out, _err = run(capsys, "seq", str(path))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "solve bound = 2: 2 solutions"
        assert lines[1] == "solution 1: r = [[-2]], eta = [[1]], c = [[0]]"
        assert lines[2] == "solution 2: r = [[2]], eta = [[1]], c = [[0]]"

    def test_solve_json(self, capsys, tmp_path):
        path = tmp_path / "template.seq"
        path.write_text(TEMPLATE)
        _code, out, _err = run(capsys, "seq", str(path), "--format", "json")
        data = json.loads(out)
        assert data["bound"] == 2
        assert data["count"] == 2
        assert [s["maps"]["r"] for s in data["solutions"]] == [[[-2]], [[2]]]

    def test_unknown_term_in_output(self, capsys, tmp_path):
        text = ("term A = 0\nterm B = unknown{0, Z, Z/2}\nterm C = Z\n"
                "term D = 0\n"
                "map f : A -> B = unknown\nmap g : B -> C = unknown\n"
                "map h : C -> D = unknown\n"
                "check exact at B, C\nsolve bound = 1\n")
        path = tmp_path / "term.seq"
        path.write_text(text)
        code, out, _err = run(capsys, "seq", str(path))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "solve bound = 1: 2 solutions"
        assert all("B = Z" in line for line in lines[1:])

    def test_no_solutions_exits_one(self, capsys, tmp_path):
        text = ("term A = 0\nterm B = Z\nterm C = 0\n"
                "map f : A -> B = unknown\nmap g : B -> C = unknown\n"
                "check exact at B\nsolve bound = 2\n")
        path = tmp_path / "unsat.seq"
        path.write_text(text)
        code, out, _err = run(capsys, "seq", str(path))
        assert code == 1
        assert out.splitlines()[0] == "solve bound = 2: 0 solutions"

    def test_missing_bound_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "nobound.seq"
        path.write_text(TEMPLATE.replace("solve bound = 2\n", ""))
        code, _out, err = run(capsys, "seq", str(path))
        assert code == 2
        assert "solve bound" in err

    def test_shipped_five_term_case(self, capsys):
        # 250000 assignments, 240 exact; a full product walk takes ~16 s
        start = time.perf_counter()
        code, out, _err = run(capsys, "seq", str(SEQUENCES / "five_term.seq"))
        assert time.perf_counter() - start < 5
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "solve bound = 2: 240 solutions"
        assert len(lines) == 241

    def test_search_space_error(self, capsys, tmp_path):
        text = ("term A = Z^4\nterm B = Z^4\n"
                "map f : A -> B = unknown\nsolve bound = 2\n")
        path = tmp_path / "huge.seq"
        path.write_text(text)
        code, _out, err = run(capsys, "seq", str(path))
        assert code == 2
        assert "search space" in err


class TestErrorPaths:
    @pytest.mark.parametrize("argv", [
        # 240 solutions: a write fails inside the command's own print
        ("seq", str(SEQUENCES / "five_term.seq")),
        # a few lines: the write fails only when stdout is flushed at exit
        ("bott", "--max", "3"),
    ], ids=["seq", "bott"])
    def test_closed_stdout(self, argv):
        # the reader is gone before the command writes, as after `| head`
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-c", "from cliffk.cli import run; run()",
                 *argv],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
        finally:
            os.close(write_end)
        assert proc.stderr == b""
        assert proc.returncode == 141

    @pytest.mark.parametrize("buffered", [True, False],
                             ids=["buffered", "unbuffered"])
    def test_closed_stdout_on_help(self, buffered):
        # help leaves main by SystemExit(0) and must still take the guarded
        # flush; with a block-buffered stdout its lines are written there
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        env.pop("PYTHONUNBUFFERED", None)
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-c", "from cliffk.cli import run; run()",
                 "--help"],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
        finally:
            os.close(write_end)
        assert proc.stderr == b""
        assert proc.returncode == 141

    def test_parse_error(self, capsys, tmp_path):
        path = tmp_path / "bad.seq"
        path.write_text("term A = Q\nterm B = Z\nmap f : A -> B = [[1]]\n")
        code, _out, err = run(capsys, "seq", str(path))
        assert code == 2
        assert err.startswith("error: line 1:")

    def test_missing_file(self, capsys, tmp_path):
        code, _out, err = run(capsys, "seq", str(tmp_path / "absent.seq"))
        assert code == 2
        assert "cannot read" in err

    def test_file_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "latin1.seq"
        path.write_bytes(b"term A = Z\n# \xff\n")
        code, _out, err = run(capsys, "seq", str(path))
        assert code == 2
        assert err.startswith(f"error: cannot read {path}: ")
        assert "utf-8" in err

    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_classify_handles_large_signatures(self, capsys):
        # classification is table arithmetic, so big-integer sizes just work
        code, out, err = run(capsys, "classify", "70", "0")
        assert code == 0
        assert err == ""
        assert "M_" in out

    def test_classify_refuses_unprintable_dimension(self, capsys):
        # 2**14284 has 4300 decimal digits, the default integer string limit
        code, out, _err = run(capsys, "classify", "14284", "0")
        assert code == 0
        assert out.endswith(")\n")
        code, out, err = run(capsys, "classify", "15000", "0")
        assert code == 2
        assert out == ""
        assert err.startswith("error: C^{15000,0}: dimension 2**15000 ")


class TestSizeBound:
    """Over-bound inputs exit 2 at once, before any large construction."""

    # bott and rpn stop at classify's digit limit: degree 14284 is the last
    @pytest.mark.parametrize("argv", [
        ("bott", "--max", "14285"),
        ("bott", "--max", "14285", "--theory", "ku"),
        ("bott", "--max", "10000000"), ("rpn", "14285"), ("rpn", "10000000"),
        ("classify", "10000000", "0"),
    ], ids=" ".join)
    def test_refused_fast(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_million_generator_free_group(self, capsys, tmp_path):
        path = tmp_path / "wide.seq"
        path.write_text("term A = Z^1000000\nterm B = 0\n"
                        "map f : A -> B = [[0]]\n")
        start = time.perf_counter()
        code, out, _err = run(capsys, "seq", str(path))
        assert time.perf_counter() - start < 1
        assert code == 0
        assert out == "exact at all checked positions\n"

    def test_thousand_cyclic_summands(self, capsys, tmp_path):
        path = tmp_path / "torsion.seq"
        path.write_text("term A = " + " + ".join(["Z/2"] * 1000) + "\n"
                        "term B = 0\nmap f : A -> B = [[0]]\n")
        start = time.perf_counter()
        code, out, _err = run(capsys, "seq", str(path))
        assert time.perf_counter() - start < 1
        assert code == 0
        assert out == "exact at all checked positions\n"

    @pytest.mark.parametrize("rank", [2000, 1000])
    def test_smith_normal_form_bound(self, capsys, tmp_path, rank):
        # check mode runs no SNF: im f is keyed by one HNF in B's single
        # coordinate, so the wide map that an SNF of f refused at 2000 is
        # now checked, as it is at 1000
        row = [1] + [0] * (rank - 1)
        path = tmp_path / "wide_map.seq"
        path.write_text(f"term A = Z^{rank}\nterm B = Z\nterm C = 0\n"
                        f"map f : A -> B = [{row}]\n"
                        "map g : B -> C = [[0]]\ncheck exact at B\n")
        start = time.perf_counter()
        code, out, _err = run(capsys, "seq", str(path))
        assert time.perf_counter() - start < 1
        assert code == 0
        assert out.startswith("exact at B\n")

    def test_wide_map_keeps_the_image_only_form(self, capsys, tmp_path):
        # f's kernel key is never needed, so im f keeps its HNF of 2000
        # generators in one coordinate; the HNF that gives both keys of f
        # would be refused
        path = tmp_path / "wide_chain.seq"
        path.write_text("term A = Z^2000\nterm B = Z\nterm C = Z\n"
                        "term D = 0\nmap f : A -> B = [[0]]\n"
                        "map g : B -> C = [[1]]\nmap h : C -> D = [[0]]\n"
                        "check exact at B, C\n")
        start = time.perf_counter()
        code, out, _err = run(capsys, "seq", str(path))
        assert time.perf_counter() - start < 1
        assert code == 0
        assert out == ("exact at B\nexact at C\n"
                       "exact at all checked positions\n")

    def test_wide_middle_group_refused(self, capsys, tmp_path):
        # the keys of a middle group with 2000 generators are HNFs in 2000
        # coordinates, past MAX_CELLS
        path = tmp_path / "wide_middle.seq"
        path.write_text("term A = 0\nterm B = Z^2000\nterm C = Z\n"
                        "map f : A -> B = [[0]]\n"
                        f"map g : B -> C = [{[1] + [0] * 1999}]\n"
                        "check exact at B\n")
        start = time.perf_counter()
        code, out, err = run(capsys, "seq", str(path))
        assert time.perf_counter() - start < 1
        assert code == 2
        assert out == ""
        assert err.startswith("error: Hermite normal form of ")

    def test_group_literal_over_bound(self, capsys, tmp_path):
        path = tmp_path / "huge.seq"
        path.write_text("term A = Z^1000000000\nterm B = 0\n"
                        "map f : A -> B = [[0]]\n")
        code, _out, err = run(capsys, "seq", str(path))
        assert code == 2
        assert "group of rank 1000000000" in err

    def test_zero_map_over_bound(self, capsys, tmp_path):
        path = tmp_path / "square.seq"
        path.write_text("term A = Z^2000\nterm B = Z^2000\n"
                        "map f : A -> B = [[0]]\n")
        code, _out, err = run(capsys, "seq", str(path))
        assert code == 2
        assert err.startswith("error: zero map Z^2000 -> Z^2000 ")

    def test_integer_past_string_limit(self, capsys, tmp_path):
        path = tmp_path / "long.seq"
        path.write_text(f"term A = Z/{'7' * 5000}\nterm B = 0\n"
                        "map f : A -> B = [[0]]\n")
        code, _out, err = run(capsys, "seq", str(path))
        assert code == 2
        assert err == "error: line 1: integer of 5000 digits is too long\n"


# every token form the command line reads, in the commands' own vocabulary
ALPHABET = ("classify", "rpn", "bott", "verify", "seq", "--format", "--form",
            "--f", "--format=json", "json", "xml", "--max", "--max=4", "3",
            "-1", "x", "--theory", "--the", "ku", "--field", "c", "--suite",
            "morita", "-", "--", "-h", "sequences/bott_degree0.seq")


def outcome(parse, argv):
    """What parse makes of argv: "help" for exit 0, "usage" for exit 2,
    else its return value."""
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            return parse(list(argv))
    except SystemExit as exc:
        return {0: "help", 2: "usage"}[exc.code]


def table_parse(argv):
    handler, args, fmt = cli._parse(argv)
    return handler, fmt, vars(args)


@pytest.fixture(scope="class")
def oracle_parse():
    parser = cli_oracle._build_parser()

    def parse(argv):
        dests = vars(parser.parse_args(argv))
        del dests["command"]
        handler = dests.pop("handler")
        sub, top = dests.pop("format_sub"), dests.pop("format_global")
        return handler, sub or top or "text", dests
    return parse


class TestAgainstArgparseOracle:
    """The table parser refuses, helps or accepts exactly where argparse
    does, with the same handler, format and arguments."""

    def test_every_argv_up_to_three_tokens(self, oracle_parse):
        for n in range(4):
            for argv in itertools.product(ALPHABET, repeat=n):
                assert (outcome(table_parse, argv)
                        == outcome(oracle_parse, argv)), argv

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(st.lists(st.sampled_from(ALPHABET), min_size=4, max_size=7))
    def test_longer_argv(self, oracle_parse, argv):
        assert outcome(table_parse, argv) == outcome(oracle_parse, argv)

    @pytest.mark.parametrize("argv", [
        ["-hh"], ["-h=h"], ["-hx"], ["-h="], ["--help=x"], ["--he"],
        ["-h", "--=x"], ["classify", "-h", "--f"],
        ["seq", "- x"], ["seq", "--x y"], ["seq", ""], ["seq", "-5."],
        ["seq", "-.5"], ["seq", "-1\n"], ["seq", "-٣"],
        ["bott", "--max", "-5.5"], ["bott", "--max="],
        ["seq", "f", "--"], ["seq", "f", "--format", "json", "--"],
    ], ids=repr)
    def test_forms_outside_the_alphabet(self, oracle_parse, argv):
        assert outcome(table_parse, argv) == outcome(oracle_parse, argv)

    def test_negative_numbers_as_argparse_reads_them(self):
        matcher = argparse.ArgumentParser()._negative_number_matcher
        for n in range(1, 6):
            for chars in itertools.product("-1.\n٣x", repeat=n):
                token = "-" + "".join(chars)
                assert (cli._negative_number(token)
                        == bool(matcher.match(token))), token

    @pytest.mark.parametrize("argv", [
        ["bott", "--max=--"], ["--format=--", "bott"], ["verify", "--suite=--"],
    ], ids=repr)
    def test_double_dash_as_value_refused(self, oracle_parse, argv):
        # argparse drops the "--" of "--flag=--" and stores [], which
        # bott then fails on and verify reads as the fiber suite
        assert outcome(oracle_parse, argv) != "usage"
        assert outcome(table_parse, argv) == "usage"


class TestHelpAndUsage:
    def test_top_help_lists_commands(self, capsys):
        code, out, _err = exits(capsys, "--help")
        assert code == 0
        assert out.startswith("usage: cliffk ")
        for name, (help_line, *_rest) in cli._commands().items():
            assert f"  {name}" in out
            assert help_line in out

    def test_command_help(self, capsys):
        code, out, err = exits(capsys, "bott", "--help")
        assert code == 0
        assert out.startswith("usage: cliffk bott ")
        assert err == ""

    def test_missing_command_names_it(self, capsys):
        code, out, err = exits(capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("usage: cliffk ")
        assert "cliffk: error: " in err
        assert "command" in err

    def test_ambiguous_prefix_refused(self, capsys):
        code, _out, err = exits(capsys, "classify", "1", "1", "--f", "json")
        assert code == 2
        assert "ambiguous option: --f could match --field, --format" in err

    @staticmethod
    def _loaded_after_bott(names):
        # which of the named modules a fresh process has loaded after
        # import cliffk and one small bott run
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        code = ("import sys, io, contextlib\n"
                "import cliffk, cliffk.cli\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    assert cliffk.cli.main(['bott', '--max', '3']) == 0\n"
                f"print(sorted({set(names)!r} & set(sys.modules)))\n")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def test_no_argparse_in_a_fresh_process(self):
        # argparse's first message lookup imports gettext and locale, which
        # cost a fresh process more than parsing itself
        assert self._loaded_after_bott(
            ["argparse", "gettext", "locale"]) == "[]\n"

    def test_no_fractions_in_a_fresh_process(self):
        # all arithmetic is on integers, so no rational type is loaded
        assert self._loaded_after_bott(["fractions", "decimal"]) == "[]\n"
