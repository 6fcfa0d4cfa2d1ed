"""README's table of size limits agrees with the module constants."""

import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
ROW = re.compile(r"^\| `(\w+)\.(\w+)` \| ([^|]+) \|", re.M)


def _value(text):
    """'2^22', '10^7' or '10 000' as an int."""
    text = text.replace(" ", "")
    if "^" in text:
        base, exp = text.split("^")
        return int(base) ** int(exp)
    return int(text)


def test_readme_limits_table_matches_constants():
    rows = ROW.findall(README.read_text())
    assert len(rows) >= 7
    for module, name, value in rows:
        mod = importlib.import_module(f"k3lattice.{module}")
        assert getattr(mod, name) == _value(value), f"{module}.{name}"
