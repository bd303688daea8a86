"""The packed GF(p)[x]/(f) kernel of `exact` against a list reference.

The reference is the schoolbook arithmetic on coefficient lists that
`factor_mod_p` and Rabin's test used before the kernel: a product, then
the remainder by f, and powers by squaring.  Products, x^p, x^((p-1)/2)
and a^((p-1)/2) mod f, the Frobenius rows and the Frobenius map are
compared over random moduli of degree 1 to 16, for small primes, for
primes whose slots need 4 and 8 bytes, and for 2^31 - 1, the largest
prime a Field admits, whose slots need 16 bytes.  Elements with every
coefficient p - 1 take a product's middle slot to its bound d (p-1)^2,
and one test reduces a value with every slot at that bound.
"""

import random

import pytest

from ssred.exact import _pdivmod, _Residues, _trim

PRIMES = (2, 3, 101, 65521, 2**31 - 1)
DEGREES = range(1, 17)


def _pmul(a: list, b: list, p: int) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for k, d in enumerate(b, i):
                out[k] += c * d
    return [c % p for c in out]


def _mulmod(a: list, b: list, f: list, p: int) -> list:
    return _pdivmod(_pmul(a, b, p), f, p)[1]


def _powmod(a: list, e: int, f: list, p: int) -> list:
    """a^e mod f, squaring from the top bit down."""
    out = [1]
    for bit in bin(e)[2:]:
        out = _mulmod(out, out, f, p)
        if bit == "1":
            out = _mulmod(out, a, f, p)
    return out


def _moduli(rng, p, d):
    """A random monic f of degree d and 1 + x + ... + x^d, for which
    x^d mod f has every coefficient p - 1."""
    return [[rng.randrange(p) for _ in range(d)] + [1], [1] * (d + 1)]


def _elements(rng, p, d):
    return [_trim([rng.randrange(p) for _ in range(d)]) for _ in range(3)] + [[p - 1] * d]


@pytest.mark.parametrize("p", PRIMES)
def test_slot_width_is_the_smallest_that_holds_the_bound(p):
    for d in DEGREES:
        ring = _Residues([1] * (d + 1), p)
        bound = d * (p - 1) ** 2 * (1 + d * (p - 1))
        assert bound < 2**ring.bits
        assert ring.bits == 8 or bound >= 2 ** (ring.bits // 2)
    assert _Residues([1, 1], 2**31 - 1).bits == 128


@pytest.mark.parametrize("p", PRIMES)
def test_products_and_powers_match_the_list_reference(p):
    rng = random.Random(p)
    for d in DEGREES:
        for f in _moduli(rng, p, d):
            ring = _Residues(f, p)
            assert ring.coeffs(ring.x) == _pdivmod([0, 1], f, p)[1]
            assert ring.coeffs(ring.pow(ring.x, p)) == _powmod([0, 1], p, f, p)
            assert ring.coeffs(ring.pow(ring.x, (p - 1) // 2)) == _powmod([0, 1], (p - 1) // 2, f, p)
            for a in _elements(rng, p, d):
                pa = ring.pack(a)
                assert ring.coeffs(pa) == a
                assert ring.coeffs(ring.pow(pa, (p - 1) // 2)) == _powmod(a, (p - 1) // 2, f, p)
                for b in _elements(rng, p, d):
                    assert ring.coeffs(ring.mul(pa, ring.pack(b))) == _mulmod(a, b, f, p), (f, a, b)


@pytest.mark.parametrize("p", PRIMES)
def test_frobenius_rows_and_map_match_the_list_reference(p):
    rng = random.Random(p + 1)
    for d in DEGREES:
        for f in _moduli(rng, p, d):
            ring = _Residues(f, p)
            rows = ring.rows
            xp = _powmod([0, 1], p, f, p)
            expected, r = [], [1]
            for _ in range(d):
                expected.append(r)
                r = _mulmod(r, xp, f, p)
            assert [ring.coeffs(row) for row in rows] == expected
            for h in _elements(rng, p, d):
                assert ring.coeffs(ring.frobenius(ring.pack(h))) == _powmod(h, p, f, p)


@pytest.mark.parametrize("p", PRIMES)
def test_reduction_at_its_input_bound(p):
    """Every one of the 2d slots at the largest value a product's slot
    can take, d (p-1)^2, with f = 1 + x + ... + x^d, whose first folded
    row x^d mod f has every coefficient p - 1."""
    for d in DEGREES:
        f = [1] * (d + 1)
        ring = _Residues(f, p)
        m = d * (p - 1) ** 2
        v = sum(m << i * ring.bits for i in range(2 * d))
        assert ring.coeffs(ring.reduce(v)) == _pdivmod([m % p] * (2 * d), f, p)[1]
