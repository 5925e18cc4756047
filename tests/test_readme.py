"""The README's Library example and CLI block run as written."""

import re
import shlex
from pathlib import Path

from cuspbounds.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def _section(title: str) -> str:
    return README.read_text(encoding="utf-8").split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_library_example_runs():
    [code] = re.findall(r"```python\n(.*?)```", _section("Library"), re.S)
    namespace: dict = {}
    exec(compile(code, f"{README.name} (Library)", "exec"), namespace)
    assert namespace["inv"]["delta"] == {"num": -1, "den": 2}
    assert namespace["twist_analysis"](namespace["d"], namespace["inv"])["t"] == 2


def test_cli_block_runs(monkeypatch, capsys):
    [block] = re.findall(r"```sh\n(.*?)```", _section("CLI"), re.S)
    lines = [line for line in block.replace("\\\n", " ").splitlines()
             if line.strip() and not line.lstrip().startswith("#")]
    assert len(lines) == 8
    monkeypatch.chdir(ROOT)  # the batch command names a path from the root
    for line in lines:
        program, *argv = shlex.split(line)
        assert program == "cuspbounds"
        # The README states that every command of the block exits 0.
        assert main(argv) == 0, line
        assert capsys.readouterr().err == ""
