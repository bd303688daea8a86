"""Every imported name in the package and the tests is used.

An import that nothing reads is dead code that still ties modules
together; this scan keeps one from lingering after the code that used
it is deleted.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = ([p for p in sorted((ROOT / "src" / "ssred").glob("*.py")) if p.name != "__init__.py"]
           + sorted((ROOT / "tests").glob("*.py")))


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.relative_to(ROOT)}:{line}: {name}"
            for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def test_no_unused_imports():
    assert SOURCES
    found = [entry for path in SOURCES for entry in unused_imports(path)]
    assert not found, "\n".join(found)


def test_package_exports_exactly_what_it_imports():
    import ssred
    tree = ast.parse((ROOT / "src" / "ssred" / "__init__.py").read_text())
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert len(ssred.__all__) == len(set(ssred.__all__))
    assert set(ssred.__all__) == imported | {"__version__"}
