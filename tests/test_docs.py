"""The README's library section against the package it documents."""

import ast
import re
from pathlib import Path

import swapmatch

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_section() -> str:
    text = README.read_text(encoding="utf-8")
    return text[text.index("## Library quick start"):text.index("## CLI")]


def test_readme_quick_start_values():
    # each "expr  # value" line must evaluate to the value it shows
    code = re.search(r"```python\n(.*?)```", _library_section(), re.S).group(1)
    namespace: dict = {}
    checked = 0
    for line in code.splitlines():
        expr, sep, comment = line.partition("#")
        if not sep:
            exec(line, namespace)
            continue
        shown = comment.split("<-")[0].strip()
        assert eval(expr, namespace) == ast.literal_eval(shown), line
        checked += 1
    assert checked == 4


def test_public_names_resolve_and_are_documented():
    section = _library_section()
    assert len(swapmatch.__all__) == len(set(swapmatch.__all__))
    assert f"exports {len(swapmatch.__all__)} names" in section
    for name in swapmatch.__all__:
        assert getattr(swapmatch, name) is not None, name
        assert f"`{name}`" in section, name
