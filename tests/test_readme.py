"""The README's library sketch and CLI section agree with the code."""

import argparse
import os
import re
import shlex
from pathlib import Path

import pytest

import quickmatch
from quickmatch.cli import build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"


def _section(title: str) -> str:
    return re.search(rf"^## {title}\n(.*?)(?=^## )", README.read_text(), re.S | re.M).group(1)


def _subparsers(parser: argparse.ArgumentParser) -> list[argparse.ArgumentParser]:
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return list(sub.choices.values())


def test_library_sketch_runs(capsys):
    sketch = re.search(r"```python\n(.*?)```", _section("Library sketch"), re.S).group(1)
    exec(compile(sketch, str(README), "exec"), {})
    assert capsys.readouterr().out
    for name in quickmatch.__all__:
        assert hasattr(quickmatch, name), name


def test_cli_section_commands_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name in [n for n in os.environ if n.startswith("QM_")]:
        monkeypatch.delenv(name)  # the README shows the built-in defaults
    block = re.search(r"```bash\n(.*?)```", _section("CLI"), re.S).group(1)
    for line in block.splitlines():
        argv = shlex.split(line, comments=True)
        assert argv[0] == "quickmatch", line
        assert main(argv[1:]) == 0, line
    assert capsys.readouterr().err == ""


def test_cli_section_names_only_declared_flags_and_variables(monkeypatch):
    text = _section("CLI")
    flags = {opt for sub in _subparsers(build_parser()) for a in sub._actions for opt in a.option_strings}
    assert set(re.findall(r"--[a-z][a-z-]*", text)) - flags == set()
    # Every `--flag a|b|c` list is that flag's parser choices, in order.
    lists = re.findall(r"(--[a-z][a-z-]*)\s+([\w.-]+(?:\|[\w.-]+)+)", text)
    assert lists
    for flag, listed in lists:
        choices = {tuple(a.choices) for sub in _subparsers(build_parser()) for a in sub._actions
                   if flag in a.option_strings}
        assert choices == {tuple(listed.split("|"))}, flag
    # A QM_* variable is declared when setting it changes some flag default.
    for name in set(re.findall(r"\bQM_[A-Z][A-Z_]*", text)):
        monkeypatch.setenv(name, "sentinel")
        defaults = [a.default for sub in _subparsers(build_parser()) for a in sub._actions]
        assert "sentinel" in defaults, name
        monkeypatch.delenv(name)


# Every module of the package; running __main__ would run the CLI.
_MODULES = sorted(
    "quickmatch" if path.stem == "__init__" else f"quickmatch.{path.stem}"
    for path in Path(quickmatch.__file__).parent.glob("*.py")
    if path.stem != "__main__"
)


@pytest.mark.parametrize("module", _MODULES)
def test_every_module_star_imports(module):
    """Each name in a module's ``__all__`` exists, so ``import *`` succeeds."""
    exec(f"from {module} import *", {})
