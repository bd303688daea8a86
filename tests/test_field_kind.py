"""`Field` is the one place in `ssred.exact` that knows how scalars are
stored.

Every matrix and row operation in the module is written on
`Field.coerce`, `Field.reduce` and `Field.axpy`, so the difference
between GF(p) and the rationals lives in one class.  This scan fails when
a field-kind test (`p is None`, `field.p is not None`) appears outside
`Field` and the two functions where it is an input guard, or when
`Fraction` is used outside `Field`.
"""

import ast
from pathlib import Path

EXACT = Path(__file__).resolve().parents[1] / "src" / "ssred" / "exact.py"
BRANCH_ALLOWED = {"Field", "all_vectors", "projective_vectors"}


def _is_p(node) -> bool:
    return ((isinstance(node, ast.Attribute) and node.attr == "p")
            or (isinstance(node, ast.Name) and node.id == "p"))


def _is_none_test(node) -> bool:
    return (isinstance(node, ast.Compare) and _is_p(node.left)
            and all(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
            and all(isinstance(c, ast.Constant) and c.value is None for c in node.comparators))


def field_kind_leaks(source: str) -> list[str]:
    """Field-kind tests outside the allowed names, and uses of `Fraction`
    outside `Field`, as "line: owner: what" entries."""
    found = []
    for top in ast.parse(source).body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if _is_none_test(node) and owner not in BRANCH_ALLOWED:
                found.append(f"{node.lineno}: {owner}: {ast.unparse(node)}")
            if isinstance(node, ast.Name) and node.id == "Fraction" and owner != "Field":
                found.append(f"{node.lineno}: {owner}: Fraction")
    return found


def test_field_kind_lives_in_field():
    leaks = field_kind_leaks(EXACT.read_text())
    assert not leaks, "\n".join(leaks)


def test_scan_sees_a_branch_on_a_local_p():
    source = ("def f(field):\n    p = field.p\n    if p is None:\n        return 0\n"
              "class Field:\n    def g(self):\n        return self.p is None\n")
    assert field_kind_leaks(source) == ["3: f: p is None"]
