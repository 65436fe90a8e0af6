"""Fields, monomial orders, polynomial arithmetic, parser and printer."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from germcalc import (DegRevLex, Field, GermRing, NegDegRevLex, ParseError,
                      Polynomial, matrix_rank, render)
from germcalc.ring import (QQ, BlockOrder, _is_prime, mono_deg, mono_div, mono_lcm,
                           mono_mul)

# one global variable above a local block of two
ELIMINATION_BLOCK = BlockOrder([(0, 1, DegRevLex()), (1, 3, NegDegRevLex())])


# ---------------------------------------------------------------------------
# fields

def test_rational_field_arithmetic():
    F = Field()
    assert F.tag == "Q"
    a = F.from_fraction(2, 3)
    b = F.from_fraction(-1, 6)
    assert F.add(a, b) == Fraction(1, 2)
    assert F.mul(a, F.inv(a)) == 1


def test_rational_inverse_is_exact():
    assert QQ.inv(3) == Fraction(1, 3) and type(QQ.inv(3)) is Fraction
    assert QQ.div(2, 4) == Fraction(1, 2) and type(QQ.div(2, 4)) is Fraction
    # 98/49 as a float is 2.0000000000000004, which left a nonzero entry
    assert matrix_rank([[49, 1], [98, 2]], QQ) == 1


def test_prime_field_arithmetic():
    F = Field(7)
    assert F.tag == "Fp:7"
    assert F.add(5, 4) == 2
    assert F.mul(3, F.inv(3)) == 1
    assert F.from_fraction(1, 2) == 4


def test_prime_field_rejects_composite():
    with pytest.raises(ValueError):
        Field(6)


def test_large_prime_moduli():
    for p in (10**18 + 3, 2**61 - 1, 2**64 - 59):
        assert Field(p).p == p
    # 10^18 + 1 is 101 * 9901 * ..., the next number a strong pseudoprime to
    # every prime base up to 23, and 2^64 + 13 and 2^89 - 1 primes above 2^64
    for p in (10**18 + 1, 3825123056546413051, 2**64 + 13, 2**89 - 1):
        with pytest.raises(ValueError):
            Field(p)


def test_primality_matches_a_sieve():
    N = 10**5
    sieve = [False, False] + [True] * (N - 2)
    for i in range(2, int(N ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i::i] = [False] * len(range(i * i, N, i))
    assert [p for p in range(N) if _is_prime(p)] == [p for p in range(N) if sieve[p]]


def test_prime_field_inverse_of_zero():
    with pytest.raises(ZeroDivisionError):
        Field(5).inv(0)


# ---------------------------------------------------------------------------
# monomials and orders

def test_mono_helpers():
    assert mono_mul((1, 2), (0, 1)) == (1, 3)
    assert mono_div((2, 2), (1, 0)) == (1, 2)
    assert mono_div((1, 0), (0, 1)) is None
    assert mono_lcm((2, 0), (1, 3)) == (2, 3)
    assert mono_deg((2, 3)) == 5


def test_degrevlex_examples():
    o = DegRevLex()
    # higher total degree wins
    assert o.compare((2, 0, 0), (1, 0, 0)) > 0
    assert o.compare((0, 0, 3), (2, 0, 0)) > 0
    # ties broken by the smaller exponent in the last variable that differs
    assert o.compare((2, 0, 0), (1, 1, 0)) > 0
    assert o.compare((1, 1, 0), (0, 0, 2)) > 0
    assert o.compare((2, 0, 0), (0, 2, 0)) > 0


def test_negdegrevlex_is_local():
    o = NegDegRevLex()
    assert o.is_local
    # 1 beats every variable, lower degree beats higher
    assert o.compare((0, 0), (1, 0)) > 0
    assert o.compare((1, 0), (1, 1)) > 0
    assert not DegRevLex().is_local


def test_block_order_compares_first_block_first():
    o = BlockOrder([(0, 1, DegRevLex()), (1, 2, NegDegRevLex())])
    # t^1 x^0 > t^0 x^5 because the global t block dominates
    assert o.compare((1, 5), (0, 0)) > 0
    assert o.compare((0, 0), (0, 1)) > 0
    assert not o.is_local


def test_elimination_block_shape():
    o = ELIMINATION_BLOCK
    assert o.compare((1, 0, 0), (0, 9, 9)) > 0
    assert o.compare((0, 0, 0), (0, 1, 0)) > 0


exps = st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6))


@given(exps, exps, exps)
def test_order_axioms(a, b, c):
    for o in (DegRevLex(), NegDegRevLex(), ELIMINATION_BLOCK):
        # total, antisymmetric, multiplicative
        assert (o.compare(a, b) == 0) == (a == b)
        assert o.compare(a, b) == -o.compare(b, a)
        assert o.compare(mono_mul(a, c), mono_mul(b, c)) == o.compare(a, b)


# ---------------------------------------------------------------------------
# polynomials

def test_basic_arithmetic(R2):
    x, y = R2.gens()
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert (p - p).is_zero
    assert p ** 2 == p * p


def test_terms_strictly_sorted(R2):
    p = R2.parse("x^3+2*x*y+y^2+5")
    keys = [R2.mono_key(m) for m, _ in p.terms]
    assert keys == sorted(keys, reverse=True)


def test_local_lead_is_lowest_degree(R2):
    p = R2.parse("x^5+x^2+x^3")
    assert p.lead()[0] == (2, 0)
    assert mono_deg(p.lead()[0]) == 2
    assert p.max_degree() == 5


def test_unit_detection(R2):
    assert R2.parse("1+x").is_unit
    assert not R2.parse("x+x^2").is_unit
    assert not R2.zero.is_unit


def test_derivative(R2):
    p = R2.parse("x^3+x*y^2+7")
    assert p.derivative(0) == R2.parse("3*x^2+y^2")
    assert p.derivative(1) == R2.parse("2*x*y")


def test_substitute(R2):
    p = R2.parse("x^2+y")
    x, y = R2.gens()
    assert p.substitute([y, x]) == R2.parse("y^2+x")
    assert p.substitute([x + y, y]) == R2.parse("x^2+2*x*y+y^2+y")


def test_prime_field_coefficients():
    R = GermRing(("x",), Field(5))
    p = R.parse("3*x+4*x")
    assert p == R.parse("2*x")
    assert (R.parse("x") * R.constant(5)).is_zero


# ---------------------------------------------------------------------------
# parser and printer

def test_parse_examples(R2):
    assert R2.parse("x^2+2*x*y") == R2.parse("x*x+x*y+y*x")
    assert R2.parse("1/2*x") == R2.parse("x").scale(Fraction(1, 2))
    assert R2.parse("(x+y)^2") == R2.parse("x^2+2*x*y+y^2")
    assert R2.parse("x-x").is_zero
    # a unary minus negates the factor after it, power included
    x, y = R2.gens()
    assert R2.parse("-x^2+y^3") == y ** 3 - x ** 2
    assert R2.parse("-(x+y)") == -(x + y)
    assert R2.parse("2*-x") == x.scale(-2)
    assert R2.parse("--x") == x and R2.parse("-1/2*x") == x.scale(Fraction(-1, 2))


@pytest.mark.parametrize("text", ["(" * 10000 + "x" + ")" * 10000,
                                  "-" * 3000 + "x"])
def test_parse_deep_input_is_a_parse_error_or_a_value(R2, text):
    try:
        p = R2.parse(text)
    except ParseError:
        return
    assert p == R2.parse("x")


def test_parse_rejects_bad_input(R2):
    for text in ("x y", "z", "x^", "2x", "x+", "(x", "x^-1", ""):
        with pytest.raises(ParseError):
            R2.parse(text)


def test_parse_error_has_position(R2):
    with pytest.raises(ParseError) as err:
        R2.parse("x+*y")
    assert err.value.pos == 2


def test_render_round_trip(R2):
    for text in ("x^2+2*x*y", "-1*x+y", "1/3*x^4+x*y^3", "0", "5",
                 "x^2-1/2*y"):
        p = R2.parse(text)
        assert R2.parse(render(p)) == p


coeffs = st.integers(-9, 9)
small_exps = st.tuples(st.integers(0, 4), st.integers(0, 4))


@st.composite
def polys(draw, ring):
    terms = draw(st.dictionaries(small_exps, coeffs, max_size=6))
    return ring.from_dict({m: ring.field.from_fraction(c)
                           for m, c in terms.items()})


_R = GermRing(("x", "y"))


@given(polys(_R), polys(_R), polys(_R))
@settings(max_examples=60)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) * r == p * r + q * r
    assert (p * q) * r == p * (q * r)
    assert p + _R.zero == p
    assert p * _R.one == p


@given(polys(_R))
@settings(max_examples=60)
def test_render_parse_inverse(p):
    assert _R.parse(render(p)) == p


_RP = GermRing(("x", "y"), Field(32003))


@given(st.sampled_from((_R, _RP)).flatmap(
    lambda R: st.tuples(polys(R), polys(R), small_exps, coeffs)))
@settings(max_examples=80, derandomize=True)
def test_fused_subtraction_matches_negate_then_add(case):
    p, g, m, c = case
    c = p.ring.field.from_fraction(c)

    def typed(q):
        return [(t, type(tc), tc) for t, tc in q.terms]

    assert typed(p.sub_mul_term(m, c, g)) == typed(p + (-g.mul_term(m, c)))
    assert typed(p - g) == typed(p + (-g))
    assert (p - p).is_zero and p - p.ring.zero == p
