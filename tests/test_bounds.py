"""The README's Bounds table against the cap constants in ssred.errors."""

import re
from pathlib import Path

from ssred import errors

README = Path(__file__).resolve().parent.parent / "README.md"
ROW = re.compile(r"^\| `(\w+)` \| `2\^(\d+)` \| [^|]+ \| (?:`(\w+)`|none) \|$")


def bounds_rows():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Bounds", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    parsed = [ROW.match(line) for line in rows]
    assert all(parsed), [line for line, m in zip(rows, parsed) if m is None]
    return [m.groups() for m in parsed]


def test_readme_bounds_table_matches_caps():
    rows = bounds_rows()
    for name, exponent, error in rows:
        assert getattr(errors, name) == 2**int(exponent), name
        if error is not None:
            cls = getattr(errors, error)
            assert isinstance(cls, type) and issubclass(cls, errors.SsredError), error
    caps = {name for name in vars(errors) if name.endswith("_CAP")}
    assert caps == {name for name, _, _ in rows}
