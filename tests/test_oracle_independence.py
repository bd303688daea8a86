"""The brute-force oracle stays independent of the pipeline it checks.

`ssred.oracle` decides complete reducibility by enumeration, so its
agreement with the pipeline is evidence only while it shares none of the
pipeline's module theory.  This scan fails when the oracle imports from
`pipeline` at all, anything from `reps` but `Representation`, or from
`flags` a name beyond the four it imports today, so that surface can
only shrink.  The probes the tests build on the oracle
(`tests/oracle_probes.py`) are held to the same rule, with `Cocharacter`
from `flags` besides.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ORACLE = ROOT / "src" / "ssred" / "oracle.py"
PROBES = ROOT / "tests" / "oracle_probes.py"
# package module -> the names the oracle may import from it; "*" is the
# module itself
ALLOWED = {
    "pipeline": set(),
    "reps": {"Representation"},
    "flags": {"Flag", "c_lambda", "chain_flags", "flag_to_cocharacter"},
}
# the probes may import the flags names the oracle imported before they
# moved out of it
PROBES_ALLOWED = ALLOWED | {"flags": ALLOWED["flags"] | {"Cocharacter"}}


def package_imports(source: str) -> set[tuple[str, str]]:
    """(module, name) for every import of a package module, at any depth,
    relative or through `ssred.`; a whole module imported is (module, "*")."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {(alias.name.split(".")[1], "*") for alias in node.names
                      if alias.name.startswith("ssred.")}
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module != "ssred" and not module.startswith("ssred."):
                    continue
                module = module.removeprefix("ssred").removeprefix(".")
            if module:
                found |= {(module.split(".")[0], alias.name) for alias in node.names}
            else:
                found |= {(alias.name, "*") for alias in node.names}
    return found


def leaks(source: str, allowed: dict = ALLOWED) -> list[str]:
    return sorted(f"{module}.{name}" for module, name in package_imports(source)
                  if module in allowed and name not in allowed[module])


def test_oracle_imports_no_pipeline_theory():
    found = leaks(ORACLE.read_text())
    assert not found, "\n".join(found)


def test_oracle_probes_import_no_pipeline_theory():
    found = leaks(PROBES.read_text(), PROBES_ALLOWED)
    assert not found, "\n".join(found)


def test_scan_sees_every_import_form():
    source = ("from .reps import Representation, is_semisimple\n"
              "from .flags import Flag\n"
              "def f():\n    from ssred.pipeline import semisimplify\n"
              "import ssred.pipeline\n"
              "from . import reps\n"
              "from ssred import flags\n"
              "from .exact import Matrix\n")
    assert leaks(source) == ["flags.*", "pipeline.*", "pipeline.semisimplify", "reps.*",
                             "reps.is_semisimple"]
