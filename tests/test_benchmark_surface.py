"""The library names the benchmark runner calls, in the forms it calls them.

perfbench/run.py stamps every result with cliffk.BACKEND, runs
thom_stability and verify_classification in its op children, and drives
every CLI op through cliffk.cli.main.  Were one of these names dropped,
every benchmark run would fail.  So a benchmark change must first drop a
name from run.py; only then may a library change drop it here and from
the library.
"""

import cliffk
import cliffk.cli


def test_names_the_benchmark_runner_calls(capsys):
    assert cliffk.BACKEND == "pure"
    report = cliffk.thom_stability(2, 0)
    assert bool(report)
    for _m, _j, low, _deg, _ok in report.shift_checks:
        assert str(low.coker) and str(low.ker)
    for field in ("real", "complex"):
        assert cliffk.verify_classification(
            cliffk.Signature(2, 4), cliffk.ScalarField(field), max_total=6)
    assert cliffk.cli.main(["bott", "--max", "2"]) == 0
    assert capsys.readouterr().out
