"""The README's library sketch runs against the public API."""

import re
from pathlib import Path

import quickmatch

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_sketch_runs(capsys):
    text = README.read_text()
    sketch = re.search(r"^## Library sketch\n.*?```python\n(.*?)```", text, re.S | re.M).group(1)
    exec(compile(sketch, str(README), "exec"), {})
    assert capsys.readouterr().out
    for name in quickmatch.__all__:
        assert hasattr(quickmatch, name), name
