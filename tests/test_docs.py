"""The docs name only code that exists, and the module map is complete.

DESIGN.md §3 is a tree of every module under ``src/repro`` (a
package's ``__init__.py`` is its directory line); every
``src/repro/...`` path and dotted ``repro.*`` name in DESIGN.md and
README.md must resolve against the tree.
"""

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
DOCS = ("DESIGN.md", "README.md")


def _module_map():
    """Paths (from the repo root) listed in DESIGN.md §3's tree block."""
    design = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    section = design.split("## 3. ", 1)[1].split("\n## ", 1)[0]
    block = section.split("```\n", 1)[1].split("```", 1)[0]
    listed = set()
    dirs = []
    for line in block.splitlines():
        if not line.strip():
            continue
        token = line.split()[0]
        depth = (len(line) - len(line.lstrip())) // 2
        if token.endswith("/"):
            dirs[depth:] = [token.rstrip("/")]
            listed.add("/".join(dirs))
        elif token.endswith(".py"):
            listed.add("/".join([*dirs[:depth], token]))
    return listed


def _modules():
    """Every module under src/repro, as the map should name it."""
    found = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = path.relative_to(ROOT)
        found.add(str(rel.parent if path.name == "__init__.py" else rel))
    return found


def test_module_map_lists_only_existing_files():
    missing = sorted(p for p in _module_map() if not (ROOT / p).exists())
    assert missing == []


def test_module_map_lists_every_module():
    assert sorted(_modules() - _module_map()) == []


def _resolves(dotted):
    """Import the longest module prefix of *dotted*, then walk the rest
    as attributes."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        name = ".".join(parts[:cut])
        rel = Path(*parts[:cut])
        if not (
            (ROOT / "src" / rel).with_suffix(".py").is_file()
            or (ROOT / "src" / rel / "__init__.py").is_file()
        ):
            continue
        obj = importlib.import_module(name)
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


@pytest.mark.parametrize("doc", DOCS)
def test_named_paths_and_modules_resolve(doc):
    text = (ROOT / doc).read_text(encoding="utf-8")
    paths = set(re.findall(r"src/repro(?:/[\w.]+)*", text))
    broken = sorted(p for p in paths if not (ROOT / p.rstrip(".")).exists())
    dotted = set(re.findall(r"\brepro(?:\.\w+)+", text))
    broken += sorted(d for d in dotted if not _resolves(d))
    assert broken == []
