"""`Representation(..., validate=False)` stays where invertibility is proved.

The unchecked constructor skips a determinant per generator.  It is sound
only for the restrictions and quotients of `reps._split`, the summand
restrictions of `reps.SemisimpleCertificate.verify` and the limit module
of `pipeline.SsResult.verify` (see the `Representation` docstring).  This
scan fails when any other function in the package builds a module
without the check: by `validate=` other than True, by `**kwargs`, or by
a third positional argument.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ssred"
ALLOWED = {"reps._split", "reps.SemisimpleCertificate.verify", "pipeline.SsResult.verify"}


def _is_representation(func) -> bool:
    return ((isinstance(func, ast.Name) and func.id == "Representation")
            or (isinstance(func, ast.Attribute) and func.attr == "Representation"))


def _unchecked(call: ast.Call) -> bool:
    if len(call.args) > 2:
        return True
    for kw in call.keywords:
        if kw.arg is None:
            return True
        if kw.arg == "validate" and not (isinstance(kw.value, ast.Constant)
                                         and kw.value.value is True):
            return True
    return False


def unchecked_constructions(module: str, source: str) -> list[str]:
    """The "module.qualname" of each unchecked `Representation` call."""
    found = []

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + [child.name]
            if (isinstance(child, ast.Call) and _is_representation(child.func)
                    and _unchecked(child)):
                found.append(".".join([module] + scope))
            walk(child, inner)

    walk(ast.parse(source), [])
    return found


def test_unchecked_representations_stay_where_invertibility_is_proved():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        found.update(unchecked_constructions(path.stem, path.read_text()))
    assert found <= ALLOWED, sorted(found - ALLOWED)
    # the scan sees the three places the package does use
    assert found == ALLOWED


def test_scan_sees_every_unchecked_form():
    source = ("def ok(g):\n    return Representation(g), Representation(g, validate=True)\n"
              "class C:\n    def f(self, g, flag):\n"
              "        return Representation(g, validate=flag)\n"
              "def h(g, kw):\n    return reps.Representation(g, None, False), Representation(**kw)\n")
    assert unchecked_constructions("m", source) == ["m.C.f", "m.h", "m.h"]
