"""Committed mutants of the verifier's checks; each must fail a named test file.

Usage, from the repository root:

    python3 tools/verifier_mutants.py

Each mutant is one textual edit of a file under ``src/``.  For each one the
script checks that the old text occurs exactly once in the file, copies
``src/``, ``tests/`` and ``pyproject.toml`` to a temporary directory, applies
the edit there and runs the named test file with pytest.  The mutant is
killed when that run fails.  The test files are first run on an unmutated
copy, so a file that fails already cannot count as a kill.  The script exits
1 if any mutant survives.  It is not part of the tier-1 suite: it runs the
named test files once per mutant.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    what: str
    file: str
    old: str
    new: str
    test_file: str


CERTS = "src/fatpoints/certificates.py"
CERT_TESTS = "tests/test_certificates.py"

MUTANTS = [
    Mutant(
        "recorded side conditions not compared with the derived ones",
        CERTS,
        "        _check_recorded_sides(node.side_conditions, app)\n",
        "",
        CERT_TESTS,
    ),
    Mutant(
        "a tree exactly MAX_DEPTH levels tall refused",
        CERTS,
        "    if root.height > MAX_DEPTH:",
        "    if root.height >= MAX_DEPTH:",
        CERT_TESTS,
    ),
    Mutant(
        "a node's height not counting the node itself",
        CERTS,
        '"height", 1 + max(',
        '"height", max(',
        CERT_TESTS,
    ),
    Mutant(
        "the oracle re-run's dimension not compared with the claim",
        CERTS,
        "    if report.dim != node.claim.known_dim():",
        "    if False:",
        CERT_TESTS,
    ),
    Mutant(
        "derived side conditions not evaluated",
        CERTS,
        "        if not sc.holds():",
        "        if False:",
        CERT_TESTS,
    ),
    Mutant(
        "a child's claim not checked against the parent's requirement",
        CERTS,
        "        if not claim_implies(child.claim, requirement):",
        "        if False:",
        CERT_TESTS,
    ),
    Mutant(
        "a subtree read before not depth-checked where it occurs again",
        CERTS,
        "            if depth + node.height - 1 > MAX_DEPTH:",
        "            if False:",
        CERT_TESTS,
    ),
]


def _copy(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _run(cmd: list[str], where: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(where / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(cmd, cwd=where, env=env, capture_output=True, text=True)


def _pytest(test_file: str, where: Path) -> subprocess.CompletedProcess:
    return _run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                 test_file], where)


def main() -> int:
    for m in MUTANTS:
        count = (ROOT / m.file).read_text().count(m.old)
        if count != 1:
            print(f"error: {m.what}: the old text occurs {count} times in {m.file}")
            return 2
    with tempfile.TemporaryDirectory(prefix="verifier-mutants-") as tmp:
        clean = Path(tmp) / "clean"
        _copy(clean)
        where = _run([sys.executable, "-c", "import fatpoints; print(fatpoints.__file__)"], clean)
        if not where.stdout.startswith(str(clean)):
            print(f"error: the copy imports fatpoints from {where.stdout or where.stderr}")
            return 2
        for test_file in sorted({m.test_file for m in MUTANTS}):
            run = _pytest(test_file, clean)
            if run.returncode != 0:
                print(f"error: {test_file} fails without a mutant\n{run.stdout}{run.stderr}")
                return 2
        survivors = 0
        for i, m in enumerate(MUTANTS):
            copy = Path(tmp) / f"mutant-{i}"
            _copy(copy)
            path = copy / m.file
            path.write_text(path.read_text().replace(m.old, m.new))
            killed = _pytest(m.test_file, copy).returncode != 0
            survivors += not killed
            print(f"{'killed  ' if killed else 'SURVIVED'} {m.what} ({m.file}; {m.test_file})")
            shutil.rmtree(copy)
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
