"""Every python block in README.md runs and prints what its ``# -> ...`` comments say."""

import contextlib
import io
import pathlib
import re

import pytest

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
