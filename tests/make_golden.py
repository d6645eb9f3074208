"""Write the golden CLI transcript corpus, tests/golden/cli.jsonl.

Run from anywhere:

    PYTHONPATH=src python tests/make_golden.py

Each argv below is run in-process through cliffk.cli.main, once as text and
once with a leading ``--format json``, and one JSON line is written per run:
argv, exit code, stdout and stderr.  ``seq`` paths are relative to the
repository root, and every run is made from there, so the file carries no
checkout path.  tests/test_golden.py replays the file and requires equality.

The corpus pins output, not truth: the oracles stay the correctness check.
Regenerate it only in a change that alters CLI output on purpose, and list
the argvs whose lines changed in CHANGES.md.
"""

from __future__ import annotations

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from cliffk.cli import main as cli_main

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "tests" / "golden" / "cli.jsonl"

# one signature per residue of p - q mod 8
SIGNATURES = ((0, 0), (1, 0), (2, 0), (3, 0), (4, 0), (0, 3), (0, 2), (0, 1))

ARGVS = (
    [["classify", str(p), str(q), "--field", field]
     for p, q in SIGNATURES for field in ("r", "c")]
    + [["rpn", str(n), "--theory", theory]
       for n in (1, 2, 3, 4, 7, 8) for theory in ("ko", "ku")]
    # 14285 is the first degree past classify's printable-dimension bound
    + [["bott", "--max", str(top), "--theory", theory]
       for top in (12, 20, 30, 14285) for theory in ("ko", "ku")]
    + [["verify", "--suite", suite]
       for suite in ("morita", "untwist", "thom", "fiber")]
    + [["seq", path] for path in ("sequences/bott_degree0.seq",
                                  "sequences/five_term.seq",
                                  "tests/golden/not_exact.seq",
                                  "tests/golden/unknown_term.seq",
                                  "tests/golden/gapped_checks.seq",
                                  "tests/golden/bad_literal.seq",
                                  "tests/golden/bad_shape.seq",
                                  "tests/golden/repeated_candidate.seq")]
    # refused command lines
    + [["classify", "-1", "0"], ["rpn", "0"], ["verify", "--suite", "nope"]]
)


def transcript(argv: list[str]) -> dict:
    """One in-process CLI run from the repository root: argv, exit code,
    stdout and stderr.  Help and usage errors leave main by SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli_main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        os.chdir(cwd)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def runs() -> list[list[str]]:
    """Every argv of the corpus, text then JSON."""
    return [argv for base in ARGVS for argv in (base, ["--format", "json",
                                                       *base])]


def main() -> None:
    CORPUS.parent.mkdir(exist_ok=True)
    with open(CORPUS, "w", encoding="utf-8") as fh:
        for argv in runs():
            fh.write(json.dumps(transcript(argv), sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
