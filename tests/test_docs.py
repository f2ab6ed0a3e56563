"""The README's library and CLI sections against the package they document."""

import ast
import re
import shlex
from pathlib import Path

import swapmatch
from swapmatch import cli

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


def _cli_lines() -> list[str]:
    text = README.read_text(encoding="utf-8")
    return re.search(r"## CLI\n\n```sh\n(.*?)```", text, re.S).group(1).splitlines()


def test_readme_cli_lines_parse():
    parser = cli.build_parser()
    lines = _cli_lines()
    for line in lines:
        argv = shlex.split(line, comments=True)
        assert argv[0] == "swapmatch", line
        parser.parse_args(argv[1:])
    assert len(lines) == 9


def test_readme_cli_search_lines_print_their_comments(capsys):
    # "# prints X" is the whole stdout; "exit N" is the exit code, and a
    # line that names none prints a match, so it exits 0
    checked = 0
    for line in _cli_lines():
        argv = shlex.split(line, comments=True)[1:]
        if argv[0] != "search" or "--text" not in argv:
            continue
        comment = line.partition("#")[2]
        shown = re.match(r" prints (\S+?),? ", comment + " ").group(1)
        stated = re.search(r"exit (\d+)", comment)
        assert cli.main(argv) == (int(stated.group(1)) if stated else 0), line
        assert capsys.readouterr().out == f"{shown}\n", line
        checked += 1
    assert checked == 2
