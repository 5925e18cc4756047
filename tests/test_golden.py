"""Golden CLI corpus: recorded ``cli.main`` calls replayed byte for byte.

Each line of ``data/golden_cli.jsonl`` holds an argv list with the stdout,
stderr and exit code recorded for it, in process and from the repository
root. A refactor must leave every entry unchanged. A deliberate change of
behaviour re-records the entries it changes and names them in CHANGES.md:
``PYTHONPATH=src python tests/test_golden.py 26 27 92`` rewrites the outputs
of the entries with those indices from their argv and leaves every other line
as it is; with no index it rewrites every entry.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from cuspbounds.cli import main

ROOT = Path(__file__).resolve().parents[1]
CORPUS = ROOT / "tests" / "data" / "golden_cli.jsonl"


def run_cli(argv: list[str]) -> dict:
    """One in-process CLI call; the working directory must be ``ROOT``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"argv": argv, "stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code}


ENTRIES = [json.loads(line) for line in CORPUS.read_text(encoding="utf-8").splitlines()]


@pytest.mark.parametrize(
    "entry", ENTRIES, ids=[f"{i:03d}-{e['argv'][0]}" for i, e in enumerate(ENTRIES)]
)
def test_cli_output_is_unchanged(entry, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert run_cli(entry["argv"]) == entry


if __name__ == "__main__":
    os.chdir(ROOT)
    for index in [int(arg) for arg in sys.argv[1:]] or range(len(ENTRIES)):
        ENTRIES[index] = run_cli(ENTRIES[index]["argv"])
    with open(CORPUS, "w", encoding="utf-8") as handle:
        for entry in ENTRIES:
            handle.write(json.dumps(entry, sort_keys=True) + "\n")
