"""Field construction, arithmetic tables and involutions."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, seed, settings, strategies as st

from hermline import FROBENIUS, IDENTITY, fields, make_field
from reference_checks import (
    field_power,
    field_tables_by_logs,
    field_tables_by_polynomials,
    from_coeffs,
)

PRIME_POWERS = [
    (p, k)
    for p in range(2, 257)
    if fields.is_prime(p)
    for k in range(1, 9)
    if p**k <= 256
]


def test_prime_field_arithmetic_is_mod_p():
    f = make_field(5)
    assert f.q == 5
    for a in f.elements():
        for b in f.elements():
            assert f.add(a, b) == (a + b) % 5
            assert f.mul(a, b) == (a * b) % 5
            assert f.sub(a, b) == (a - b) % 5


def test_frozen_moduli():
    """The modulus is the first irreducible polynomial in encoding order."""
    assert make_field(2, 2, "frobenius").modulus == (1, 1, 1)
    assert make_field(3, 2, "frobenius").modulus == (1, 0, 1)
    assert make_field(2, 3).modulus == (1, 1, 0, 1)


@pytest.mark.parametrize(
    "p,k,involution",
    [(2, 1, IDENTITY), (3, 1, IDENTITY), (2, 2, FROBENIUS), (3, 2, FROBENIUS), (2, 3, IDENTITY)],
)
def test_field_axioms_exhaustive(p, k, involution):
    f = make_field(p, k, involution)
    assert f.q == p**k
    elements = list(f.elements())
    for a in elements:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.add(a, f.neg(a)) == 0
        for b in elements:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            for c in elements:
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


def test_inverses():
    f = make_field(3, 2, "frobenius")
    for a in f.elements():
        if a == 0:
            continue
        assert f.mul(a, f.inv(a)) == 1
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


def test_subtraction_is_add_neg(f9):
    for a in f9.elements():
        for b in f9.elements():
            assert f9.sub(a, b) == f9.add(a, f9.neg(b))


@pytest.mark.parametrize("p,k", [(2, 2), (3, 2), (2, 4)])
def test_frobenius_involution_properties(p, k):
    f = make_field(p, k, FROBENIUS)
    fixed = []
    for a in f.elements():
        assert f.sigma(f.sigma(a)) == a
        assert f.sigma(a) == field_power(f, a, p ** (k // 2))
        if f.sigma(a) == a:
            fixed.append(a)
        for b in f.elements():
            assert f.sigma(f.mul(a, b)) == f.mul(f.sigma(a), f.sigma(b))
            assert f.sigma(f.add(a, b)) == f.add(f.sigma(a), f.sigma(b))
    assert tuple(fixed) == f.fixed_elements
    assert len(fixed) == p ** (k // 2)


def test_frozen_fixed_elements(f4, f9):
    assert f4.fixed_elements == (0, 1)
    assert f9.fixed_elements == (0, 1, 2)


def test_identity_involution_fixes_everything(f3):
    assert f3.fixed_elements == tuple(f3.elements())
    for a in f3.elements():
        assert f3.sigma(a) == a


def test_pow_matches_repeated_multiplication(f4):
    for a in f4.elements():
        acc = 1
        for e in range(10):
            assert field_power(f4, a, e) == acc
            acc = f4.mul(acc, a)
    assert field_power(f4, 2, -1) == f4.inv(2)
    assert field_power(f4, 3, -2) == f4.inv(f4.mul(3, 3))


def test_multiplicative_group_order(f9):
    """Nonzero elements satisfy a^(q-1) = 1."""
    for a in f9.elements():
        if a:
            assert field_power(f9, a, f9.q - 1) == 1


def test_frobenius_power_maps(f9):
    for a in f9.elements():
        assert f9.frobenius(a, 0) == a
        assert f9.frobenius(a, 1) == field_power(f9, a, 3)
        assert f9.frobenius(a, 2) == a


def test_coeffs_roundtrip(f9):
    for a in f9.elements():
        coeffs = f9.coeffs(a)
        assert len(coeffs) == f9.k
        assert from_coeffs(f9, coeffs) == a
    with pytest.raises(ValueError):
        from_coeffs(f9, (1, 2, 3))


def test_element_string_roundtrip(f4):
    for a in f4.elements():
        assert f4.parse_element(f4.element_to_string(a)) == a
    with pytest.raises(ValueError):
        f4.parse_element("7")
    with pytest.raises(ValueError):
        f4.parse_element("x+1")
    # the wire format is plain decimal: int() would read each of these as 1
    for literal in ("0_1", " 1", "1 ", "+1", "\u0661", "1\n", "", None, 1):
        with pytest.raises(ValueError):
            f4.parse_element(literal)
    with pytest.raises(ValueError):
        make_field(2, 4).parse_element("1_0")  # int() reads 10, an element


def test_check_element(f2):
    assert f2.check_element(1) == 1
    with pytest.raises(ValueError):
        f2.check_element(2)
    with pytest.raises(ValueError):
        f2.check_element(-1)
    with pytest.raises(ValueError):
        f2.check_element(True)


def test_make_field_validation():
    with pytest.raises(ValueError):
        make_field(4)
    with pytest.raises(ValueError):
        make_field(2, 0)
    with pytest.raises(ValueError):
        make_field(2, 2, "conjugation")
    with pytest.raises(ValueError):
        make_field(2, 3, FROBENIUS)


def test_bool_parameters_are_refused():
    """A bool p or k would share the cache key of the int it equals."""
    with pytest.raises(ValueError):
        make_field(2, True)
    with pytest.raises(ValueError):
        make_field(True)
    assert type(make_field(2, 1).k) is int and make_field(2, 1).k == 1


def test_involution_aliases():
    assert make_field(2, 2, "frobenius_half") is make_field(2, 2, FROBENIUS)
    assert make_field(3, 1, "id") is make_field(3, 1, IDENTITY)


def test_field_cache_and_equality():
    assert make_field(2) is make_field(2)
    assert make_field(2) == make_field(2, 1, IDENTITY)
    assert make_field(2) != make_field(3)
    assert make_field(2, 2, IDENTITY) != make_field(2, 2, FROBENIUS)


def test_repr():
    assert repr(make_field(2)) == "GF(2)"
    assert repr(make_field(3, 2, FROBENIUS)) == "GF(9)[frobenius]"


@given(st.integers(min_value=0, max_value=26), st.integers(min_value=0, max_value=26))
def test_gf27_commutativity_property(a, b):
    f = make_field(3, 3)
    assert f.mul(a, b) == f.mul(b, a)
    assert f.add(a, b) == f.add(b, a)


@given(st.integers(min_value=1, max_value=48), st.integers(min_value=0, max_value=20))
def test_gf49_power_law_property(a, e):
    f = make_field(7, 2, FROBENIUS)
    assert field_power(f, a, e + 1) == f.mul(field_power(f, a, e), a)
    assert f.sigma(field_power(f, a, e)) == field_power(f, f.sigma(a), e)


def test_tables_match_polynomial_reference():
    """Every table of every GF(q), q <= 256, equals the entry-by-entry build."""
    assert len(PRIME_POWERS) == 70
    for p, k in PRIME_POWERS:
        for involution in (IDENTITY, FROBENIUS)[: 2 - k % 2]:
            field = fields.FieldSpec(p, k, involution)
            for name, table in field_tables_by_polynomials(p, k, involution).items():
                assert getattr(field, name) == table, (p, k, involution, name)


@pytest.mark.parametrize(
    "p,k,involution",
    [
        (2, 9, IDENTITY),
        (2, 10, IDENTITY),
        (5, 4, FROBENIUS),
        (3, 6, FROBENIUS),
        (31, 2, FROBENIUS),
    ],
)
def test_large_field_tables_match_log_reference(p, k, involution):
    """Above q = 256 every table equals the entry-by-entry log/antilog build."""
    field = fields.FieldSpec(p, k, involution)
    for name, table in field_tables_by_logs(p, k, involution).items():
        assert getattr(field, name) == table, name


@pytest.mark.parametrize("p,k,involution", [(2, 10, IDENTITY), (3, 6, FROBENIUS)])
def test_large_field_axioms_sampled(p, k, involution):
    f = make_field(p, k, involution)
    element = st.integers(min_value=0, max_value=f.q - 1)

    @seed(p * k)
    @settings(max_examples=300, deadline=None, database=None)
    @given(element, element, element)
    def axioms(a, b, c):
        assert f.add(a, b) == f.add(b, a) and f.mul(a, b) == f.mul(b, a)
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        assert f.sub(f.add(a, b), b) == a and f.add(a, f.neg(a)) == 0
        assert f.mul(a, 1) == a and f.mul(a, 0) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1 and field_power(f, a, f.q - 1) == 1
        assert f.sigma(f.sigma(a)) == a
        assert f.sigma(f.mul(a, b)) == f.mul(f.sigma(a), f.sigma(b))
        assert f.sigma(f.add(a, b)) == f.add(f.sigma(a), f.sigma(b))
        assert f.frobenius(a, 1) == field_power(f, a, p)

    axioms()
    assert len(f.fixed_elements) == (p ** (k // 2) if involution == FROBENIUS else f.q)


REDUCIBLE = [
    (2, 2, (1, 0, 1)),
    (3, 2, (2, 0, 1)),
    (2, 3, (1, 0, 0, 1)),
    (2, 4, (1, 0, 0, 0, 1)),
]


@pytest.mark.parametrize("p,k,modulus", REDUCIBLE)
def test_reducible_modulus_raises(p, k, modulus, monkeypatch):
    monkeypatch.setattr(fields, "_find_modulus", lambda p, k: modulus)
    with pytest.raises(RuntimeError, match="reducible"):
        fields.FieldSpec(p, k, IDENTITY)


def test_reducible_modulus_raises_under_optimize():
    """The order check is not an assert, so python -O keeps it."""
    code = (
        "import hermline.fields as f\n"
        "f._find_modulus = lambda p, k: (1, 0, 1)\n"
        "try:\n"
        "    f.FieldSpec(2, 2, 'identity')\n"
        "except RuntimeError as exc:\n"
        "    print('raised', exc)\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        check=True,
    )
    assert proc.stdout.startswith("raised ") and "reducible" in proc.stdout


@pytest.mark.parametrize("involution", [IDENTITY, FROBENIUS])
def test_sigma_check_rejects_a_table_that_is_no_automorphism(involution, monkeypatch):
    """Powers that are no permutation make sigma no automorphism; both checks see it."""
    monkeypatch.setattr(fields, "_primitive_powers", lambda p, k, modulus: [1] * 8)
    with pytest.raises(RuntimeError, match="not an involution"):
        fields.FieldSpec(3, 2, involution)


def _swapped_frobenius(field):
    """sigma conjugated by the swap of two non-fixed elements, a and b != sigma(a).

    It is still an involution, but no longer multiplicative.
    """
    sig = field._sigma
    a = next(x for x in field.elements() if sig[x] != x)
    b = next(x for x in field.elements() if sig[x] != x and x not in (a, sig[a]))
    swap = list(field.elements())
    swap[a], swap[b] = b, a
    return tuple(swap[sig[swap[x]]] for x in field.elements())


def test_involution_check_rejects_a_non_multiplicative_involution():
    f16 = make_field(2, 4, FROBENIUS)
    fields._check_involution(FROBENIUS, f16._sigma, f16._mul)
    bad, mul = _swapped_frobenius(f16), f16._mul
    assert all(bad[bad[x]] == x for x in f16.elements())
    pairs = [(a, b) for a in f16.elements() for b in f16.elements()]
    assert any(bad[mul[a][b]] != mul[bad[a]][bad[b]] for a, b in pairs)
    with pytest.raises(RuntimeError, match="not an involution"):
        fields._check_involution(FROBENIUS, bad, f16._mul)


def test_involution_check_rejects_a_non_multiplicative_involution_under_optimize():
    """The check is not an assert, so python -O keeps it."""
    bad = _swapped_frobenius(make_field(2, 4, FROBENIUS))
    code = (
        "import hermline.fields as f\n"
        "f16 = f.make_field(2, 4, 'frobenius')\n"
        "try:\n"
        f"    f._check_involution('frobenius', {bad!r}, f16._mul)\n"
        "except RuntimeError as exc:\n"
        "    print('raised', exc)\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        check=True,
    )
    assert proc.stdout.startswith("raised ") and "not an involution" in proc.stdout
