"""The README's Library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    [code] = re.findall(r"```python\n(.*?)```", library, re.S)
    namespace: dict = {}
    exec(compile(code, f"{README.name} (Library)", "exec"), namespace)
    assert namespace["inv"]["delta"] == {"num": -1, "den": 2}
    assert namespace["twist_analysis"](namespace["d"], namespace["inv"])["t"] == 2
