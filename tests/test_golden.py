"""Replay the golden CLI transcripts: same stdout, stderr and exit code.

tests/make_golden.py writes the corpus and says when it may be rewritten.
"""

import json

import pytest

from make_golden import CORPUS, runs, transcript

with open(CORPUS, encoding="utf-8") as _fh:
    GOLDEN = [json.loads(line) for line in _fh]


def test_corpus_lists_every_run():
    assert [entry["argv"] for entry in GOLDEN] == runs()


@pytest.mark.parametrize("entry", GOLDEN,
                         ids=[" ".join(e["argv"]) for e in GOLDEN])
def test_replay(entry):
    assert transcript(entry["argv"]) == entry
