"""The package's public surface is the name list that README.md states.

README's Library section opens with a bullet list of backquoted names;
``jthresh.__all__`` must be exactly that list, and every name must resolve
on the package.
"""

from __future__ import annotations

import re
from pathlib import Path

import jthresh

README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_names() -> list[str]:
    library = README.read_text().split("\n## Library\n", 1)[1]
    bullets = library.split("\n\n")[1]  # the paragraph after the opening sentence
    return re.findall(r"`(\w+)`", bullets)


def test_all_equals_readme_list():
    names = _readme_names()
    assert len(names) == len(set(names)) > 0
    assert sorted(jthresh.__all__) == sorted(names)
    assert all(hasattr(jthresh, name) for name in names)
