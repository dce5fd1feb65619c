"""Every python block in README.md runs and prints what its ``# -> ...`` comments
say, and its command-line section names exactly the parser's flags."""

import argparse
import contextlib
import io
import pathlib
import re

import pytest

from ddcident.cli import build_parser

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_block_prints_its_comments(code):
    # each printed line, in order, is the text after "# -> " up to a ";"
    expected = [m.split(";")[0].strip() for m in re.findall(r"# -> (.*)$", code, re.M)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected


def test_command_line_section_names_the_parser_flags():
    # a removed flag cannot linger in the docs, nor a new one go undocumented
    section = README.read_text(encoding="utf-8").split("\n## Command line\n")[1].split("\n## ")[0]
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    options = {flag for name in ("run", "validate") for action in commands.choices[name]._actions
               if not isinstance(action, argparse._HelpAction) for flag in action.option_strings}
    assert named == options
