"""Reading and writing representation files.

A representation file is UTF-8 JSON with fields:

    n           ambient dimension (integer)
    field       {"kind": "prime", "p": <prime>} or {"kind": "rational"}
    generators  nonempty list of n-by-n arrays of entry strings
    name        optional label

Entries are decimal integer strings "a" over a prime field and "a" or
"a/b" strings over the rationals, a with an optional minus sign; JSON
integers read as their strings.  No floats appear anywhere, on the way in
or out.  `serialize_rep(parse_rep(text))` is byte-identical for files in
canonical form (entries reduced, keys sorted, two-space indent).
"""

import json
import re
from fractions import Fraction

from .errors import InvalidInput
from .exact import Field, Matrix
from .reps import Representation


# "a" or "a/b" in ASCII digits; int() then rejects "a/b" over a prime field
_ENTRY = re.compile(r"-?[0-9]+(/[0-9]+)?")


def canonical_json(payload) -> str:
    """Deterministic JSON: sorted keys, two-space indent, trailing newline."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def scalar_to_str(field: Field, x) -> str:
    if field.p is not None:
        return str(x)
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def str_to_scalar(field: Field, s: str):
    """An entry string or a JSON integer as a field element; a float, a
    bool or a string off the file grammar raises InvalidInput."""
    if type(s) is int:
        s = str(s)
    if not (isinstance(s, str) and _ENTRY.fullmatch(s)):
        raise InvalidInput(f"bad matrix entry {s!r}")
    try:
        if field.p is not None:
            return int(s, 10) % field.p
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidInput(f"bad matrix entry {s!r}: {exc}")


def matrix_to_lists(m: Matrix) -> list:
    return [[scalar_to_str(m.field, x) for x in row] for row in m.entries]


def _parse_field(obj) -> Field:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise InvalidInput("field must be an object with a 'kind'")
    kind = obj["kind"]
    if kind == "prime":
        if type(obj.get("p")) is not int:
            raise InvalidInput("prime field needs an integer 'p'")
        return Field.prime(obj["p"])
    if kind == "rational":
        return Field.rational()
    raise InvalidInput(f"unknown field kind {kind!r}")


def _field_payload(field: Field) -> dict:
    if field.p is not None:
        return {"kind": "prime", "p": field.p}
    return {"kind": "rational"}


def parse_rep(text: str) -> Representation:
    """Parse a representation file body into a validated Representation.
    A text that is not a str, JSON nested too deeply to read or an integer
    past Python's digit limit raises InvalidInput."""
    if not isinstance(text, str):
        raise InvalidInput(f"expected the file body as a str, got {type(text).__name__}")
    try:
        obj = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an int past the digit limit
        raise InvalidInput(f"not valid JSON: {exc}")
    except RecursionError:
        raise InvalidInput("JSON nested too deeply to read") from None
    if not isinstance(obj, dict):
        raise InvalidInput("top level must be a JSON object")
    for key in ("n", "field", "generators"):
        if key not in obj:
            raise InvalidInput(f"missing required key {key!r}")
    n = obj["n"]
    if type(n) is not int or n < 1:
        raise InvalidInput("n must be a positive integer")
    field = _parse_field(obj["field"])
    gens_obj = obj["generators"]
    if not isinstance(gens_obj, list) or not gens_obj:
        raise InvalidInput("generators must be a nonempty list")
    mats = []
    for g in gens_obj:
        if (not isinstance(g, list) or len(g) != n
                or any(not isinstance(row, list) or len(row) != n for row in g)):
            raise InvalidInput(f"each generator must be an {n}x{n} array")
        mats.append(Matrix(field, [[str_to_scalar(field, x) for x in row]
                                   for row in g]))
    name = obj.get("name")
    if name is not None and not isinstance(name, str):
        raise InvalidInput("name must be a string when present")
    return Representation(mats, name=name)


def serialize_rep(rep: Representation) -> str:
    payload = {
        "n": rep.n,
        "field": _field_payload(rep.field),
        "generators": [matrix_to_lists(m) for m in rep.generators],
    }
    if rep.name is not None:
        payload["name"] = rep.name
    return canonical_json(payload)


def load_rep(path: str) -> tuple:
    """Read a representation file; returns (Representation, digest string)."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise InvalidInput(f"cannot read {path}: {exc}")
    # imported here, as only a file read needs a digest: hashlib maps
    # OpenSSL, which would cost every `import ssred` some 3.5 MB of RSS
    import hashlib

    digest = "sha256:" + hashlib.sha256(raw).hexdigest()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidInput(f"{path} is not UTF-8: {exc}")
    return parse_rep(text), digest
