import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py"))


def _oldest_python() -> tuple[int, int]:
    """The lowest version pyproject.toml's ``requires-python`` admits."""
    text = (ROOT / "pyproject.toml").read_text()
    major, minor = re.search(r'requires-python\s*=\s*">=(\d+)\.(\d+)"', text).groups()
    return int(major), int(minor)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_on_oldest_supported_python(path):
    """No syntax newer than the oldest Python the package claims to support."""
    ast.parse(path.read_text(), filename=str(path), feature_version=_oldest_python())
