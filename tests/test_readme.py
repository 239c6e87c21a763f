"""The README's library quick tour runs as written and prints what it says."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_tour_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    claimed = re.search(r"print\(e\.render\(\)\) +# (.*)", blocks[0]).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    assert lines[0] == claimed == "h + x * 2 * y"
    assert len(lines) > 1  # the enumeration printed its modules
