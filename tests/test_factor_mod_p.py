"""`exact.factor_mod_p` against sympy's `gf_factor`, Rabin's irreducibility
test against `factor_mod_p`, and the lazy sympy import.

The reference shares no code with the in-house factoring: sympy is
imported here and nowhere on the package's GF(p) path, which the
subprocess test checks.
"""

import random
import subprocess
import sys
from pathlib import Path

import pytest
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_factor, gf_strip

from ssred.exact import factor_mod_p, is_irreducible_mod_p

PRIMES = (2, 3, 5, 7, 101, 65521, 2**31 - 1)
SRC = Path(__file__).resolve().parents[1] / "src"


def reference(coeffs, p):
    """sympy's factorization in factor_mod_p's form: monic ascending
    tuples with multiplicities, sorted by degree then coefficients."""
    _lead, facs = gf_factor(gf_strip([c % p for c in reversed(coeffs)]), p, ZZ)
    out = [(tuple(int(c) for c in reversed(f)), m) for f, m in facs]
    return sorted(out, key=lambda fm: (len(fm[0]), fm[0]))


def poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


def random_poly(rng, p, deg):
    return [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)]


@pytest.mark.parametrize("p", PRIMES)
def test_random_polynomials_match_sympy(p):
    rng = random.Random(p)
    for deg in range(17):
        for _ in range(3):
            f = random_poly(rng, p, deg)
            assert factor_mod_p(f, p) == reference(f, p), f


@pytest.mark.parametrize("p", PRIMES)
def test_planted_repeated_factors_match_sympy(p):
    rng = random.Random(p + 1)
    for _ in range(12):
        g = random_poly(rng, p, rng.randrange(1, 4))
        f = random_poly(rng, p, rng.randrange(0, 4))
        for _ in range(rng.randrange(2, 5)):
            f = poly_mul(f, g, p)
        assert factor_mod_p(f, p) == reference(f, p), f


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_polynomials_in_x_to_the_p_match_sympy(p):
    """f(x^p) = f(x)^p has zero derivative; times a cofactor it mixes
    multiplicities divisible by p with others."""
    rng = random.Random(p + 2)
    for _ in range(12):
        g = random_poly(rng, p, rng.randrange(1, 4))
        f = [0] * ((len(g) - 1) * p + 1)
        f[::p] = g
        assert factor_mod_p(f, p) == reference(f, p), f
        f = poly_mul(f, random_poly(rng, p, rng.randrange(1, 4)), p)
        assert factor_mod_p(f, p) == reference(f, p), f


@pytest.mark.parametrize("coeffs, p, expected", [
    ((), 5, []),
    ((0,), 5, []),
    ((0, 0, 0), 5, []),
    ((3,), 5, []),
    ((3, 0, 0), 5, []),
    ((5, 10), 5, []),  # 10x + 5 is zero mod 5
    ((0, 2), 5, [((0, 1), 1)]),  # non-monic
    ((2, 0, 3, 0), 5, [((1, 1), 1), ((4, 1), 1)]),  # 3x^2 + 2 with a trailing zero
    ((-1, 0, 1), 3, [((1, 1), 1), ((2, 1), 1)]),  # unreduced coefficients
    ((1, 0, 1), 2, [((1, 1), 2)]),
])
def test_degenerate_inputs(coeffs, p, expected):
    assert factor_mod_p(coeffs, p) == expected
    assert reference(list(coeffs), p) == expected


@pytest.mark.parametrize("coeffs, p, generators", [
    ((1, 0, 1), 3, 0),  # x^2 + 1 is irreducible over GF(3)
    ((1, 1, 1, 1), 2, 0),  # (x + 1)^3: one linear part, nothing to split
    ((0, 2, 0, 1), 3, 1),  # x (x + 1)(x + 2): one split of degree-1 factors
    # x (x + 1)(x^2 + 1)(x^2 + x + 2): a split in degree 1 and one in degree 2
    ((0, 2, 0, 1, 1, 2, 1), 3, 1),
])
def test_generator_is_made_only_for_a_split(monkeypatch, coeffs, p, generators):
    """The generator is created at the first part that needs splitting,
    and shared by the later ones."""
    import ssred.exact

    made = []
    real = ssred.exact.random.Random

    def counting(*args):
        made.append(args)
        return real(*args)

    monkeypatch.setattr(ssred.exact.random, "Random", counting)
    assert factor_mod_p(coeffs, p) == reference(list(coeffs), p)
    assert made == [(0,)] * generators


def _rabin_cases(rng, p):
    """Random monic polynomials of degree 1 to 10, the irreducible ones
    among them, their squares and products of two of them."""
    polys = [[rng.randrange(p) for _ in range(d)] + [1]
             for d in range(1, 11) for _ in range(4)]
    irreducible = [f for f in polys if factor_mod_p(f, p) == [(tuple(f), 1)]]
    pairs = [rng.sample(irreducible, 2) for _ in range(10)]
    return (polys + [poly_mul(f, f, p) for f in irreducible[:10]]
            + [poly_mul(f, g, p) for f, g in pairs])


@pytest.mark.parametrize("p", (2, 3, 101, 65521, 2**31 - 1))
def test_rabin_agrees_with_factor_mod_p(p):
    """A monic f is irreducible exactly when factor_mod_p returns f alone;
    a polynomial that is not monic is rejected even when irreducible."""
    rng = random.Random(p + 3)
    seen = set()
    for f in _rabin_cases(rng, p):
        irreducible = factor_mod_p(f, p) == [(tuple(f), 1)]
        seen.add(irreducible)
        assert is_irreducible_mod_p(f, p) == irreducible, f
        if irreducible:
            assert not is_irreducible_mod_p(f + [0], p), f
            if p > 2:
                c = rng.randrange(2, p)
                assert not is_irreducible_mod_p([x * c % p for x in f], p), f
    assert seen == {True, False}


@pytest.mark.parametrize("coeffs, p, expected", [
    ((), 5, False),
    ((1,), 5, False),
    ((0, 1), 5, True),
    ((3, 1), 5, True),
    ((0, 2), 5, False),  # 2x is irreducible but not monic
    ((1, 0, 1), 3, True),
    ((1, 0, 1), 2, False),  # (x + 1)^2
    ((1, 1, 0, 0, 1), 2, True),  # x^4 + x + 1
    ((1, 0, 1, 0, 1), 2, False),  # (x^2 + x + 1)^2 shares x^2 + x + 1 with x^4 - x
])
def test_rabin_on_fixed_polynomials(coeffs, p, expected):
    assert is_irreducible_mod_p(coeffs, p) is expected


SUBPROCESS = """
import random
import sys
# a Python built without _sha512 has random load hashlib for its seeding
preloaded = "hashlib" in sys.modules
import ssred
from ssred import Field, Matrix, Representation, is_gcr_over_k, oracle_gcr, semisimplify
from ssred.reps import find_submodule

def rep(field, *gens):
    return Representation([Matrix(field, g) for g in gens])

for p in (2, 101, 65521):
    field = Field.prime(p)
    # SL_2(p) on a plane, extended by a trivial line with no complement
    nonsplit = rep(field, [[1, 1, 1], [0, 1, 0], [0, 0, 1]], [[1, 0, 1], [1, 1, 0], [0, 0, 1]])
    assert semisimplify(nonsplit).verify()
    assert not is_gcr_over_k(nonsplit).semisimple
    natural = rep(field, [[1, 1], [0, 1]], [[1, 0], [1, 1]])
    assert is_gcr_over_k(natural).verify(natural)
    assert find_submodule(natural).verify(natural)
assert oracle_gcr(rep(Field.prime(3), [[1, 1], [0, 1]], [[1, 0], [1, 1]]))
assert "sympy" not in sys.modules, "GF(p) work loaded sympy"
assert preloaded or "hashlib" not in sys.modules, "GF(p) work loaded hashlib"
qq = rep(Field.rational(), [[0, -1], [1, 0]])
assert is_gcr_over_k(qq).semisimple
assert "sympy" in sys.modules, "the rational path did not load sympy"
print("ok")
"""


def test_gf_p_work_leaves_sympy_unloaded():
    done = subprocess.run([sys.executable, "-c", SUBPROCESS], capture_output=True, text=True,
                          env={"PYTHONPATH": str(SRC)}, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"
