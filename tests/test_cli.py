"""Command line behavior: output text, JSON shape, exit codes."""

import json

import pytest

from cliffk.cli import main

TEMPLATE = """\
term KU0 = Z
term KO0 = Z
term KOm1 = Z/2
term KU1 = 0
map r : KU0 -> KO0 = unknown
map eta : KO0 -> KOm1 = unknown
map c : KOm1 -> KU1 = unknown
check exact at KO0, KOm1
solve bound = 2
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        text = ("term KU0 = Z\nterm KO0 = Z\nterm KOm1 = Z/2\nterm KU1 = 0\n"
                "map r : KU0 -> KO0 = [[4]]\n"
                "map eta : KO0 -> KOm1 = [[1]]\n"
                "map c : KOm1 -> KU1 = [[0]]\n"
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

    def test_search_space_error(self, capsys, tmp_path):
        text = ("term A = Z^4\nterm B = Z^4\n"
                "map f : A -> B = unknown\nsolve bound = 2\n")
        path = tmp_path / "huge.seq"
        path.write_text(text)
        code, _out, err = run(capsys, "seq", str(path))
        assert code == 2
        assert "search space" in err


class TestErrorPaths:
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
