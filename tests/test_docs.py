"""The README's code runs and prints what its comments say."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_block(heading: str) -> str:
    """The first ```python block of the README section under ``heading``."""
    section = README.read_text(encoding="utf-8").split(f"\n{heading}\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_quick_start_prints_what_it_says(capsys):
    exec(_python_block("## Library quick start"), {})
    pe, verdict, error, dimension, member = capsys.readouterr().out.splitlines()
    assert (pe, verdict, dimension, member) == ("True", "ok", "5", "True")
    assert float(error) < 1e-13
