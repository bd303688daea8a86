"""Field arithmetic lives in `ssred.exact`.

ROADMAP aim 2 asks for one linear-algebra kernel per field, so that a
faster kernel (a packed GF(p) one, say) has one place to go.  This scan
fails on any call `X.axpy/reduce/add/sub/mul/neg/inv(...)`, where X is a
name `field` or an attribute ending in `.field`, in an `ssred` module
other than `exact`; row arithmetic elsewhere goes through `exact`'s
`linear_combination`, `Subspace.residual` and the `Matrix` operations.

The one exception is `flags.flag_to_cocharacter`, whose inverse basis
change is a back-substitution of `Field.axpy` steps.  Written as one
`linear_combination` per row, its 438 calls in a seed-1 pass of the
bench's `oracle-small` workload took 7.3-7.9 ms instead of 4.7-4.9 ms
(min of 20 repeats, on a shared 2-vCPU Xeon host).
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ssred"
ARITHMETIC = {"axpy", "reduce", "add", "sub", "mul", "neg", "inv"}
ALLOWED = {("flags", "flag_to_cocharacter")}


def _is_field(node) -> bool:
    return ((isinstance(node, ast.Name) and node.id == "field")
            or (isinstance(node, ast.Attribute) and node.attr == "field"))


def field_arithmetic_calls(module: str, source: str) -> list[str]:
    """Calls of a Field arithmetic method outside the allowed top-level
    functions, as "module:line: owner: call" entries."""
    found = []
    for top in ast.parse(source).body:
        owner = getattr(top, "name", None)
        if (module, owner) in ALLOWED:
            continue
        for node in ast.walk(top):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ARITHMETIC and _is_field(node.func.value)):
                found.append(f"{module}:{node.lineno}: {owner}: {ast.unparse(node.func)}")
    return found


def test_field_arithmetic_lives_in_exact():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem != "exact":
            found += field_arithmetic_calls(path.stem, path.read_text())
    assert not found, "\n".join(found)


def test_scan_sees_field_arithmetic_outside_exact():
    source = ("def f(field, acc, v):\n    acc.add(v)\n    return field.axpy(v, 1, v)\n"
              "class C:\n    def g(self, x):\n        return self.rep.field.inv(x)\n"
              "def flag_to_cocharacter(field, v):\n    return field.reduce(v)\n"
              "def h(field):\n    return field.one, field.coerce(1)\n")
    assert field_arithmetic_calls("flags", source) == [
        "flags:3: f: field.axpy", "flags:6: C: self.rep.field.inv"]
    assert field_arithmetic_calls("reps", source)[-1] == "reps:8: flag_to_cocharacter: field.reduce"
