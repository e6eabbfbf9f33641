"""Every module under src/repro is used by the program, not only by tests.

A module counts as used when some Python file that is not a test (outside
``tests/``, and not a ``test_*.py`` or ``conftest.py`` elsewhere) names it,
either by its dotted name (``repro.core.grid``) or by importing it from its
package (``from repro.core import grid``).  Spark-free.
"""
import os
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# Modules that exist for the tests: the brute-force reference, the
# clustering validators and the DuckDB oracle.
TEST_ONLY = {"repro.core.reference", "repro.core.validate", "repro.oracle"}


def _modules() -> dict[str, Path]:
    """Dotted name -> file of every module under src/repro (packages aside)."""
    return {
        ".".join(p.relative_to(SRC).with_suffix("").parts): p
        for p in (SRC / "repro").rglob("*.py")
        if p.name != "__init__.py"
    }


def _program_files() -> dict[Path, str]:
    """Text of every Python file of the program: none under tests/ or a
    hidden directory, and no test module or conftest elsewhere."""
    out = {}
    for top, dirs, files in os.walk(ROOT):
        skip = {"tests"} if Path(top) == ROOT else set()
        dirs[:] = [x for x in dirs if not x.startswith(".") and x not in skip]
        for f in files:
            if f.endswith(".py") and not f.startswith("test_") and f != "conftest.py":
                out[Path(top) / f] = (Path(top) / f).read_text()
    return out


def _named(name: str) -> re.Pattern:
    pkg, _, mod = name.rpartition(".")
    return re.compile(
        rf"\b{re.escape(name)}\b"
        rf"|\bfrom\s+{re.escape(pkg)}\s+import\s+(\([^)]*|[^\n]*)\b{re.escape(mod)}\b"
    )


def test_every_module_used_outside_tests():
    modules, texts = _modules(), _program_files()
    assert TEST_ONLY <= set(modules), TEST_ONLY - set(modules)
    unused = {
        name
        for name, path in modules.items()
        if not any(_named(name).search(t) for p, t in texts.items() if p != path)
    }
    assert unused <= TEST_ONLY, sorted(unused - TEST_ONLY)


def test_finds_both_spellings():
    pat = _named("repro.core.grid")
    assert pat.search('import_module("repro.core.grid")')
    assert pat.search("from repro.core import box, grid")
    assert pat.search("from repro.core import (\n    box,\n    grid,\n)")
    assert not pat.search("from repro.core import gridlike")
    assert not pat.search("from repro.spatial import grid")
