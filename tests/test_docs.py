import re
from pathlib import Path

import multishape as ms

README = Path(__file__).resolve().parent.parent / "README.md"


def entry_points():
    """Names in README's "Key entry points" sentence."""
    text = README.read_text(encoding="utf-8")
    listing = text.split("Key entry points:", 1)[1].split(". ", 1)[0]
    return re.findall(r"`(\w+)`", listing)


def test_readme_entry_points_exist():
    names = entry_points()
    assert len(names) >= 10
    missing = [name for name in names if not hasattr(ms, name)]
    assert missing == []
