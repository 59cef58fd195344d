"""The README's library tour runs, and prints the values its comments give."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _tour() -> list[str]:
    """The lines of the README's one Python block."""
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    return blocks[0].splitlines()


def test_library_tour_values_match_their_comments():
    namespace: dict = {}
    checked = []
    for line in _tour():
        code, _, comment = line.partition("#")
        value = re.match(r"\s*(\d+)\b", comment)
        if value:
            assert eval(code, namespace) == int(value[1]), line
            checked.append(int(value[1]))
        else:
            exec(code, namespace)
    assert checked == [8, 2, 216, 6, 2, 2]
