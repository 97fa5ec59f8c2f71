import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from leibniz_complex.sympoly import (MAX_TERM_DEGREE, DigitBudgetError, DimensionError,
                                     SymPoly, SymPolyParseError, derivation_extend, dot, exact,
                                     parse_sympoly, rational_text)

B = SymPoly.generator(1, 0)  # single generator, think "b"
ONE = SymPoly.constant(1, 1)


def test_additive_inverse():
    assert (B + (-B)).is_zero()


def test_doubling():
    assert B + B == SymPoly.monomial(1, (0,), 2)


def test_mixed_sum():
    # (b^2 + 1) + b = b^2 + b + 1
    p = SymPoly(1, {(0, 0): 1, (): 1}) + B
    assert p == SymPoly(1, {(0, 0): 1, (0,): 1, (): 1})


def test_square():
    assert B * B == SymPoly.monomial(1, (0, 0))


def test_unit():
    p = SymPoly(1, {(0, 0): Fraction(3, 2), (): -1})
    assert ONE * p == p


def test_difference_of_squares():
    # expanded by hand: (b+1)(b-1) = b^2 - 1
    assert (B + ONE) * (B - ONE) == SymPoly(1, {(0, 0): 1, (): -1})


def test_derivation_on_square():
    base = [B]
    assert derivation_extend(base, B * B) == SymPoly.monomial(1, (0, 0), 2)


def test_derivation_kills_scalars():
    assert derivation_extend([B], ONE).is_zero()
    assert derivation_extend([B], SymPoly.zero(1)).is_zero()


def test_derivation_leibniz_expansion():
    # base(b) = b^2 applied to b^2: two copies of b * b^2 = 2 b^3
    base = [B * B]
    assert derivation_extend(base, B * B) == SymPoly.monomial(1, (0, 0, 0), 2)


def test_dimension_mismatch():
    q = SymPoly.generator(2, 1)
    with pytest.raises(DimensionError):
        B + q
    with pytest.raises(DimensionError):
        B * q
    with pytest.raises(DimensionError):
        derivation_extend([B], q)
    with pytest.raises(DimensionError):
        SymPoly(1, {(1,): 1})


def test_degree_additive_on_monomials():
    p = SymPoly.monomial(2, (0, 1))
    q = SymPoly.monomial(2, (1,))
    assert (p * q).degree() == 3


def test_render_examples():
    assert SymPoly.zero(2).render() == "0"
    assert SymPoly(2, {(0, 0, 1): Fraction(3, 2), (): 1}).render() == "3/2*z1^2*z2 + 1"
    assert SymPoly(1, {(0,): -2}).render() == "-2*z1"
    assert SymPoly(1, {(0,): 1, (): -1}).render() == "z1 - 1"


def test_parse_examples():
    assert parse_sympoly(2, "3/2*z1^2*z2 + 1") == SymPoly(2, {(0, 0, 1): Fraction(3, 2), (): 1})
    assert parse_sympoly(1, "-z1") == -B
    assert parse_sympoly(1, "0").is_zero()
    assert parse_sympoly(3, "z3*z1") == SymPoly.monomial(3, (0, 2))


def test_parse_rejects_garbage():
    for bad in ("z1 +", "* z1", "z9", "1 2", "q"):
        with pytest.raises(SymPolyParseError):
            parse_sympoly(2, bad)


def test_parse_bounds_the_degree_of_a_term():
    assert parse_sympoly(2, f"z1^{MAX_TERM_DEGREE - 1}*z2 + z1^{MAX_TERM_DEGREE}").degree() \
        == MAX_TERM_DEGREE
    for bad in ("z1^99999999999", f"z1^{MAX_TERM_DEGREE + 1}", f"z1^{MAX_TERM_DEGREE}*z2",
                f"1 + 2*z1^{MAX_TERM_DEGREE // 2}*z2^{MAX_TERM_DEGREE // 2 + 1}"):
        with pytest.raises(SymPolyParseError):
            parse_sympoly(2, bad)


def test_parse_rejects_unusable_numbers():
    digits = "1" * 5000  # longer than the interpreter converts to an int
    for bad in ("1/0", "z1 - 3/0", digits, f"{digits}*z1", f"z{digits}", f"z1^{digits}"):
        with pytest.raises(SymPolyParseError):
            parse_sympoly(2, bad)


def canonical(value):
    return type(value) is int or (type(value) is Fraction and value.denominator > 1)


def test_exact_keeps_ints_and_whole_fractions_as_int():
    assert type(exact(7)) is int and exact(7) == 7
    assert type(exact(Fraction(6, 3))) is int and exact(Fraction(6, 3)) == 2
    assert type(exact(True)) is int and exact(True) == 1
    assert exact(Fraction(-1, 2)) == Fraction(-1, 2)
    for bad in (0.5, 1.0, "1", None):
        with pytest.raises(TypeError):
            exact(bad)


def test_int_and_whole_fraction_coefficients_give_one_polynomial():
    for n in (-3, 1, 7):
        p = SymPoly(2, {(0, 1): Fraction(n), (): Fraction(2 * n, 2)})
        q = SymPoly(2, {(0, 1): n, (): n})
        assert p == q and hash(p) == hash(q) and p.render() == q.render()
        assert all(type(c) is int for _, c in p.items())
        assert parse_sympoly(2, p.render()) == q
    assert SymPoly.constant(1, Fraction(4, 2)).render() == "2"
    assert SymPoly.monomial(1, (0,), Fraction(-3, 3)).render() == "-z1"


def test_whole_sums_and_products_are_stored_as_int():
    half = SymPoly.constant(1, Fraction(1, 2))
    assert type(half.coeff(())) is Fraction
    for whole in (half + half, half * SymPoly.constant(1, 2), half.scale(4),
                  SymPoly(1, [((), Fraction(1, 2)), ((), Fraction(1, 2))]),
                  derivation_extend([SymPoly.constant(1, Fraction(1, 2))], B.scale(2))):
        assert [type(c) for _, c in whole.items()] == [int]


fractions = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def sympolys(draw, nvars=2, max_degree=3):
    n_terms = draw(st.integers(min_value=0, max_value=4))
    terms = []
    for _ in range(n_terms):
        degree = draw(st.integers(min_value=0, max_value=max_degree))
        mono = tuple(sorted(draw(
            st.lists(st.integers(0, nvars - 1), min_size=degree, max_size=degree))))
        terms.append((mono, draw(fractions)))
    return SymPoly(nvars, terms)


@given(sympolys(), sympolys(), sympolys())
def test_mul_associative_and_distributive(p, q, r):
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r == dot(2, [(p, q), (r, p)])


@given(sympolys(), sympolys())
def test_mul_commutative(p, q):
    assert p * q == q * p


@given(sympolys())
def test_normalization_idempotent(p):
    assert SymPoly(p.nvars, dict(p.items())) == p
    assert p + SymPoly.zero(p.nvars) == p


@given(sympolys(), sympolys(), st.lists(sympolys(), min_size=2, max_size=2))
def test_derivation_is_a_derivation(p, q, base):
    lhs = derivation_extend(base, p * q)
    rhs = derivation_extend(base, p) * q + p * derivation_extend(base, q)
    assert lhs == rhs
    for r in range(2):
        assert derivation_extend(base, SymPoly.generator(2, r)) == base[r]


@given(sympolys(), sympolys(), st.lists(sympolys(), min_size=2, max_size=2), fractions)
def test_arithmetic_keeps_coefficients_canonical(p, q, base, f):
    for result in (p, p + q, p - q, -p, p * q, p.scale(f), derivation_extend(base, p),
                   dot(2, [(p, q), (q.scale(f), p)])):
        assert all(canonical(c) for _, c in result.items())


@given(sympolys())
def test_render_parse_roundtrip(p):
    assert parse_sympoly(p.nvars, p.render()) == p


def test_rendering_a_coefficient_over_the_print_limit_names_it():
    big = 10 ** (sys.get_int_max_str_digits() + 5)
    for poly in (SymPoly.constant(1, big), SymPoly(1, {(0,): Fraction(1, big)})):
        with pytest.raises(DigitBudgetError, match=f"{sys.get_int_max_str_digits()} digits"):
            poly.render()
    assert rational_text(Fraction(-3, 4)) == "-3/4"
