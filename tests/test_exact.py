"""Exact arithmetic: the ring Q(i)[sqrt(2)], radical numbers, half-integers."""

import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from spinnet import exact
from spinnet.exact import (
    ExactScalar,
    HalfInteger,
    RadicalNumber,
    factorial,
    half_integer_range,
    sqrt_rational,
    squarefree_decompose,
)


# Fixed, reproducible property runs: the same examples on every run.
PROPERTIES = settings(derandomize=True, max_examples=150, deadline=None, database=None)

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=15)
exact_scalars = st.builds(ExactScalar, rationals, rationals, rationals, rationals)
real_scalars = st.builds(ExactScalar, rationals, rationals)
exponents = st.integers(-4, 4)


class _RefExactScalar:
    """Frozen reference: ``(a + b*sqrt(2)) + (c + d*sqrt(2))*i`` held as four
    Fractions, with the textbook product and an inverse through the
    sqrt(2)- and complex conjugates.  ExactScalar must agree with it on
    every operation (see TestMatchesReference)."""

    __slots__ = ("re_rat", "re_sqrt2", "im_rat", "im_sqrt2")

    def __init__(self, re_rat=0, re_sqrt2=0, im_rat=0, im_sqrt2=0):
        self.re_rat = Fraction(re_rat)
        self.re_sqrt2 = Fraction(re_sqrt2)
        self.im_rat = Fraction(im_rat)
        self.im_sqrt2 = Fraction(im_sqrt2)

    def _parts(self):
        return self.re_rat, self.re_sqrt2, self.im_rat, self.im_sqrt2

    @staticmethod
    def _coerce(other):
        if isinstance(other, _RefExactScalar):
            return other
        if isinstance(other, (int, Fraction)):
            return _RefExactScalar(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _RefExactScalar(*(x + y for x, y in zip(self._parts(), o._parts())))

    __radd__ = __add__

    def __neg__(self):
        return _RefExactScalar(*(-x for x in self._parts()))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a1, b1, c1, d1 = self._parts()
        a2, b2, c2, d2 = o._parts()
        return _RefExactScalar(
            a1 * a2 + 2 * b1 * b2 - c1 * c2 - 2 * d1 * d2,
            a1 * b2 + b1 * a2 - c1 * d2 - d1 * c2,
            a1 * c2 + c1 * a2 + 2 * (b1 * d2 + d1 * b2),
            a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2,
        )

    __rmul__ = __mul__

    def conjugate(self):
        return _RefExactScalar(self.re_rat, self.re_sqrt2, -self.im_rat, -self.im_sqrt2)

    def _sqrt2_conjugate(self):
        return _RefExactScalar(self.re_rat, -self.re_sqrt2, self.im_rat, -self.im_sqrt2)

    def inverse(self):
        if self.is_zero():
            raise ValueError("division by zero ExactScalar")
        g = self._sqrt2_conjugate()
        p = self * g  # in Q(i)
        pc = p.conjugate()
        n = p * pc  # rational
        assert n.re_sqrt2 == 0 and n.im_rat == 0 and n.im_sqrt2 == 0
        return g * pc * _RefExactScalar(1 / n.re_rat)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        result = _RefExactScalar(1)
        for _ in range(n):
            result = result * self
        return result

    def is_zero(self):
        return not any(self._parts())

    def is_real(self):
        return self.im_rat == 0 and self.im_sqrt2 == 0

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._parts() == o._parts()

    def to_complex(self):
        return complex(
            float(self.re_rat) + float(self.re_sqrt2) * math.sqrt(2.0),
            float(self.im_rat) + float(self.im_sqrt2) * math.sqrt(2.0),
        )

    def to_radical(self):
        if not self.is_real():
            raise ValueError(f"not a real number: {self.serialize()}")
        return RadicalNumber({1: self.re_rat, 2: self.re_sqrt2})

    def serialize(self):
        a, b, c, d = (f"{q.numerator}/{q.denominator}" for q in self._parts())
        return f"{a} + {b}*r2 + ({c} + {d}*r2)*i"


def rand_scalar(rng):
    return ExactScalar(
        Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
        Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
        Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
        Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
    )


class TestExactScalar:
    def test_field_axioms_randomized(self):
        rng = random.Random(0)
        for _ in range(100):
            a, b, c = (rand_scalar(rng) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a
            assert a - a == ExactScalar.zero()

    def test_inverse_randomized(self):
        rng = random.Random(1)
        for _ in range(100):
            a = rand_scalar(rng)
            if a.is_zero():
                continue
            assert a * a.inverse() == ExactScalar.one()
            assert a / a == ExactScalar.one()

    def test_matches_complex_arithmetic(self):
        rng = random.Random(2)
        for _ in range(50):
            a, b = rand_scalar(rng), rand_scalar(rng)
            assert math.isclose(
                abs((a * b).to_complex()), abs(a.to_complex() * b.to_complex()),
                rel_tol=1e-12, abs_tol=1e-12,
            )
            assert abs((a + b).to_complex() - (a.to_complex() + b.to_complex())) < 1e-12

    def test_sqrt2_squares_to_two(self):
        r2 = ExactScalar.sqrt2()
        assert r2 * r2 == ExactScalar(2)
        assert ExactScalar.inv_sqrt2() * r2 == ExactScalar.one()

    def test_phase_quarter_eighth_roots(self):
        for k in range(8):
            z = ExactScalar.phase_quarter(k)
            acc = ExactScalar.one()
            for _ in range(8):
                acc = acc * z
            assert acc == ExactScalar.one()
            assert abs(z.to_complex() - complex(math.cos(k * math.pi / 4),
                                                math.sin(k * math.pi / 4))) < 1e-12
        assert ExactScalar.phase_quarter(4) == ExactScalar(-1)

    def test_serialize_roundtrip(self):
        rng = random.Random(3)
        for _ in range(100):
            a = rand_scalar(rng)
            assert ExactScalar.deserialize(a.serialize()) == a

    def test_conjugate(self):
        a = ExactScalar(1, 2, 3, 4)
        assert a.conjugate() == ExactScalar(1, 2, -3, -4)
        assert (a * a.conjugate()).is_real()

    def test_to_radical(self):
        a = ExactScalar(Fraction(3, 2), Fraction(-1, 3))
        r = a.to_radical()
        assert math.isclose(r.to_float(), 1.5 - math.sqrt(2) / 3)
        with pytest.raises(ValueError):
            ExactScalar(0, 0, 1, 0).to_radical()


class TestExactScalarProperties:
    """Field laws, serialization and the RadicalNumber embedding."""

    @PROPERTIES
    @given(exact_scalars, exact_scalars, exact_scalars)
    def test_ring_laws(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + ExactScalar.zero() == a and a * ExactScalar.one() == a
        assert a - b == a + (-b)
        assert a - a == ExactScalar.zero()

    @PROPERTIES
    @given(exact_scalars, exact_scalars)
    def test_inverse_and_division(self, a, b):
        assume(not b.is_zero())
        assert b * b.inverse() == ExactScalar.one()
        assert b.inverse().inverse() == b
        assert (a / b) * b == a
        assert a / b == a * b.inverse()
        assert 1 / b == b.inverse()

    @PROPERTIES
    @given(exact_scalars, exponents, exponents)
    def test_powers(self, a, m, n):
        assume(not a.is_zero())
        assert a ** 0 == ExactScalar.one()
        assert a ** (m + n) == a ** m * a ** n
        assert a ** -n == (a ** n).inverse()

    def test_zero_has_no_inverse(self):
        with pytest.raises(ValueError):
            ExactScalar.zero().inverse()
        with pytest.raises(ValueError):
            ExactScalar.one() / 0

    @PROPERTIES
    @given(exact_scalars)
    def test_conjugate_is_an_involution_with_real_norm(self, a):
        assert a.conjugate().conjugate() == a
        assert (a * a.conjugate()).is_real()
        assert a.conjugate().to_complex() == a.to_complex().conjugate()

    @PROPERTIES
    @given(exact_scalars)
    def test_serialize_round_trip(self, a):
        text = a.serialize()
        assert ExactScalar.deserialize(text) == a
        assert ExactScalar.deserialize(text).serialize() == text

    @PROPERTIES
    @given(real_scalars, real_scalars)
    def test_radical_embedding(self, a, b):
        ra, rb = a.to_radical(), b.to_radical()
        assert ra.to_exact_scalar() == a
        assert (a + b).to_radical() == ra + rb
        assert (a * b).to_radical() == ra * rb
        r = RadicalNumber({1: ra.terms.get(1, 0), 2: ra.terms.get(2, 0)})
        assert r.to_exact_scalar().to_radical() == r


parts = st.tuples(rationals, rationals, rationals, rationals)


@st.composite
def scalar_parts(draw):
    """Four rationals, the imaginary pair zeroed in about half the draws."""
    a, b, c, d = draw(parts)
    return (a, b, 0, 0) if draw(st.booleans()) else (a, b, c, d)


class TestMatchesReference:
    """ExactScalar pinned to _RefExactScalar by serialize text."""

    @PROPERTIES
    @given(scalar_parts(), scalar_parts(), st.integers(-6, 6), rationals, st.integers(-4, 4))
    def test_every_operation(self, p, q, k, r, n):
        x, y, ref_x, ref_y = ExactScalar(*p), ExactScalar(*q), _RefExactScalar(*p), _RefExactScalar(*q)

        def same(new, ref):
            assert new.serialize() == ref.serialize()

        same(x, ref_x)
        assert (x.re_rat, x.re_sqrt2, x.im_rat, x.im_sqrt2) == ref_x._parts()
        same(ExactScalar.deserialize(ref_x.serialize()), ref_x)
        same(x + y, ref_x + ref_y)
        same(x - y, ref_x - ref_y)
        same(-x, -ref_x)
        same(x * y, ref_x * ref_y)
        same(x.conjugate(), ref_x.conjugate())
        assert (x == y) == (ref_x == ref_y)
        assert x.is_zero() == ref_x.is_zero() and x.is_real() == ref_x.is_real()
        assert x.to_complex() == ref_x.to_complex()
        if ref_x.is_real():
            assert x.to_radical().serialize() == ref_x.to_radical().serialize()
        else:
            with pytest.raises(ValueError):
                x.to_radical()
        for c in (k, r):
            same(x + c, ref_x + c)
            same(c + x, c + ref_x)
            same(x - c, ref_x - c)
            same(c - x, c - ref_x)
            same(x * c, ref_x * c)
            same(c * x, c * ref_x)
            assert (x == c) == (ref_x == c)
            if c:
                same(x / c, ref_x / c)
        if not ref_y.is_zero():
            same(y.inverse(), ref_y.inverse())
            same(x / y, ref_x / ref_y)
            same(k / y, k / ref_y)
            same(r / y, r / ref_y)
            same(y ** n, ref_y ** n)
        else:
            with pytest.raises(ValueError):
                y.inverse()
        if n >= 0:
            same(x ** n, ref_x ** n)

    @PROPERTIES
    @given(scalar_parts(), st.one_of(st.just(0), st.integers(-6, 6), st.integers(-2 ** 100, 2 ** 100)))
    def test_int_operands_on_both_sides(self, p, n):
        # Sums and products with a plain int equal those with the int as an
        # ExactScalar, form for form, and the reference's text.
        x, ref_x, as_scalar = ExactScalar(*p), _RefExactScalar(*p), ExactScalar(n)
        for got, general, ref in ((x + n, x + as_scalar, ref_x + n), (n + x, as_scalar + x, n + ref_x),
                                  (x * n, x * as_scalar, ref_x * n), (n * x, as_scalar * x, n * ref_x)):
            assert got.omega == general.omega
            assert got.serialize() == ref.serialize()


class TestRadicalNumber:
    def test_sqrt_products_reduce(self):
        r6 = sqrt_rational(6)
        r2 = sqrt_rational(2)
        r3 = sqrt_rational(3)
        assert r2 * r3 == r6
        assert r2 * r2 == RadicalNumber({1: 2})
        assert r6 * r6 == RadicalNumber({1: 6})
        # sqrt(8) = 2 sqrt(2)
        assert sqrt_rational(8) == RadicalNumber({2: 2})

    def test_linear_independence(self):
        # a + b sqrt(2) + c sqrt(3) = 0 only for a = b = c = 0.
        x = RadicalNumber({1: 1}) + sqrt_rational(2) - sqrt_rational(2)
        assert x == RadicalNumber.one()
        assert not (sqrt_rational(2) == sqrt_rational(3))

    def test_inverse_single_term(self):
        x = RadicalNumber({3: Fraction(5, 7)})
        assert x * x.inverse() == RadicalNumber.one()
        two_terms = sqrt_rational(2) + sqrt_rational(3)
        with pytest.raises(NotImplementedError):
            two_terms.inverse()

    def test_serialize_roundtrip(self):
        samples = [
            RadicalNumber.zero(),
            RadicalNumber.one(),
            RadicalNumber({1: Fraction(-1, 6)}),
            RadicalNumber({2: 480}),
            sqrt_rational(Fraction(1, 3)) * sqrt_rational(Fraction(1, 6)),
            RadicalNumber({1: Fraction(1, 2), 2: Fraction(-3, 4), 21: Fraction(1, 30)}),
        ]
        for x in samples:
            assert RadicalNumber.deserialize(x.serialize()) == x

    def test_sqrt_rational_value(self):
        x = sqrt_rational(Fraction(1, 3))
        assert math.isclose(x.to_float(), 1 / math.sqrt(3))
        y = sqrt_rational(Fraction(1, 3)) * sqrt_rational(Fraction(1, 6))
        assert y == RadicalNumber({2: Fraction(1, 6)})  # sqrt(2)/6

    def test_products_are_not_factored_again(self):
        # Each factor is squarefree, so is their product; factoring it again
        # would meet a cofactor above 10^18 with no prime factor below 10^6.
        x = sqrt_rational(1000003) * sqrt_rational(1000033) * sqrt_rational(1000037)
        assert x.serialize() == "1*sqrt(1000073001431003663)"

    def test_to_exact_scalar(self):
        x = RadicalNumber({1: Fraction(1, 2), 2: 3})
        assert x.to_exact_scalar() == ExactScalar(Fraction(1, 2), 3)
        with pytest.raises(ValueError):
            sqrt_rational(3).to_exact_scalar()


# 12 = 4 * 3, so the constructor folds it into the sqrt(3) term.
radicals = st.dictionaries(st.sampled_from([1, 2, 3, 5, 6, 12]), rationals, max_size=4).map(RadicalNumber)
single_terms = st.builds(lambda s, q: RadicalNumber({s: q}), st.sampled_from([1, 2, 3, 5, 6]),
                         rationals.filter(bool))
sums = st.lists(single_terms, max_size=4).map(lambda ts: sum(ts, RadicalNumber.zero()))


class TestRadicalNumberProperties:
    """The operators RadicalNumber takes from its own +, unary -, *, inverse and one."""

    @PROPERTIES
    @given(radicals, radicals, single_terms, st.integers(0, 6), rationals)
    def test_derived_operators(self, a, b, t, n, q):
        assert a - b == a + (-b)
        assert q - a == RadicalNumber.from_rational(q) + (-a)
        product = RadicalNumber.one()
        for _ in range(n):
            product = product * a
        assert a ** n == product
        assert (a * t) / t == a
        assert q / t == RadicalNumber.from_rational(q) * t.inverse()
        assert t ** -n == (t ** n).inverse()

    @PROPERTIES
    @given(sums, sums, single_terms, rationals, real_scalars)
    def test_arithmetic_factors_nothing(self, a, b, t, q, e):
        # The arithmetic keeps its keys squarefree without factoring them:
        # the constructor, which factors, leaves each result's terms as they are.
        def no_factoring(n):
            raise AssertionError(f"factored {n}")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(exact, "squarefree_decompose", no_factoring)
            results = [a + b, -a, a * b, t.inverse(), a + q, q * a, RadicalNumber.one(),
                       RadicalNumber.from_rational(q), e.to_radical()]
        for x in results:
            assert x.terms == RadicalNumber(x.terms).terms


class TestSquarefree:
    def test_decompose(self):
        assert squarefree_decompose(1) == (1, 1)
        assert squarefree_decompose(8) == (2, 2)
        assert squarefree_decompose(36) == (6, 1)
        assert squarefree_decompose(360) == (6, 10)

    def test_randomized(self):
        rng = random.Random(4)
        for _ in range(200):
            n = rng.randint(1, 10**6)
            c, s = squarefree_decompose(n)
            assert c * c * s == n
            for p in range(2, 40):
                assert s % (p * p) != 0

    def test_prime_factors_above_the_trial_bound(self):
        # Past 10^6 a cofactor below 10^18 is p, p^2 or pq; a larger one raises.
        p, q = 1000003, 1000033
        assert squarefree_decompose(12 * p * p) == (2 * p, 3)
        assert squarefree_decompose(p * q) == (1, p * q)
        assert squarefree_decompose(4 * p) == (2, p)
        for n in (p ** 3, p * q * 1000037):
            with pytest.raises(ValueError, match=f"cannot factor the radicand {n}"):
                squarefree_decompose(n)

    def test_factorial(self):
        assert factorial(0) == 1
        assert factorial(6) == 720
        with pytest.raises(ValueError):
            factorial(-1)


class TestHalfInteger:
    def test_parsing(self):
        assert HalfInteger("1/2").twice == 1
        assert HalfInteger("0.5").twice == 1
        assert HalfInteger("3").twice == 6
        assert HalfInteger(Fraction(3, 2)).twice == 3
        assert HalfInteger(2).twice == 4
        with pytest.raises(ValueError):
            HalfInteger("1/3")

    @pytest.mark.parametrize("literal, twice", [
        ("3", 6), ("-3/2", -3), ("+1/2", 1), (" 0.5 ", 1), ("\t2.0\n", 4), ("-0", 0), ("10/4", 5),
        ("1.50", 3), ("10000000000000000000000.5", 20000000000000000000001),
    ])
    def test_good_literal(self, literal, twice):
        assert HalfInteger(literal).twice == twice

    @pytest.mark.parametrize("value", [
        "0.50000000000000001", "1_0", "\u0661", "1.5e0", "1/0", "nan", "1.0e400",
        "1/3", "0.25", "", "-", "1.", ".5", "1 / 2", "--1", "inf", "0x1", "1/2/2",
        math.inf, -math.inf, math.nan, 0.25, Fraction(1, 3),
    ])
    def test_bad_value(self, value):
        with pytest.raises(ValueError, match=re.escape(repr(value))):
            HalfInteger(value)

    @PROPERTIES
    @given(st.sampled_from(["", "+", "-"]), st.integers(0, 10**20),
           st.one_of(st.integers(1, 12).map("/{}".format), st.from_regex(r"\.[0-9]{1,20}", fullmatch=True)))
    def test_literal_is_read_exactly(self, sign, n, tail):
        literal = f"{sign}{n}{tail}"
        twice = 2 * Fraction(literal)
        if twice.denominator == 1:
            assert HalfInteger(literal).twice == twice
        else:
            with pytest.raises(ValueError, match="not a half-integer"):
                HalfInteger(literal)

    def test_bool_or_other_type_is_a_type_error(self):
        for value in (True, False, None, [1]):
            with pytest.raises(TypeError):
                HalfInteger(value)
        assert HalfInteger(1).__eq__(True) is NotImplemented and HalfInteger(1) != True
        assert HalfInteger(0).__eq__(False) is NotImplemented

    def test_arithmetic_and_order(self):
        h = HalfInteger(Fraction(1, 2))
        assert (h + h).twice == 2
        assert (-h).twice == -1
        assert h < HalfInteger(1)
        assert abs(HalfInteger(Fraction(-3, 2)).twice) == 3

    def test_hash_equals_the_fraction_hash(self):
        # Past 2**53 a float of twice / 2 is rounded; the hash must not be.
        big = [2**60 + 1, 2**61 - 1, 2**61, 2**61 + 1, 2**62 + 3, 10**30 + 1]
        for twice in [*range(-1000, 1001), *big, *(-t for t in big)]:
            h = HalfInteger.from_twice(twice)
            assert hash(h) == hash(Fraction(twice, 2)), twice
            if twice % 2 == 0:
                assert hash(h) == hash(twice // 2)

    def test_from_twice_is_the_half_integer(self):
        made = [HalfInteger.from_twice(t) for t in range(-9, 10)]
        wanted = [HalfInteger(Fraction(t, 2)) for t in range(-9, 10)]
        for h, w in zip(made, wanted):
            assert type(h) is HalfInteger and h == w and hash(h) == hash(w) and str(h) == str(w)
            with pytest.raises(AttributeError):
                h.twice = 0
        for a, b in zip(made, made[::-1]):
            x, y = HalfInteger(Fraction(a.twice, 2)), HalfInteger(Fraction(b.twice, 2))
            assert (a < b, a <= b, a > b, a >= b) == (x < y, x <= y, x > y, x >= y)
        assert sorted(reversed(made)) == made

    def test_range_decreasing(self):
        ms = half_integer_range(HalfInteger(Fraction(3, 2)))
        assert [m.twice for m in ms] == [3, 1, -1, -3]
