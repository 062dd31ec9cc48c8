"""Exact arithmetic: the ring Q(i)[sqrt(2)], radical numbers, half-integers."""

import math
import random
from fractions import Fraction

import pytest

from spinnet.exact import (
    ExactScalar,
    HalfInteger,
    RadicalNumber,
    factorial,
    half_integer_range,
    sqrt_rational,
    squarefree_decompose,
)


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

    def test_to_exact_scalar(self):
        x = RadicalNumber({1: Fraction(1, 2), 2: 3})
        assert x.to_exact_scalar() == ExactScalar(Fraction(1, 2), 3)
        with pytest.raises(ValueError):
            sqrt_rational(3).to_exact_scalar()


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

    def test_arithmetic_and_order(self):
        h = HalfInteger(Fraction(1, 2))
        assert (h + h).twice == 2
        assert (-h).twice == -1
        assert h < HalfInteger(1)
        assert abs(HalfInteger(Fraction(-3, 2)).twice) == 3

    def test_range_decreasing(self):
        ms = half_integer_range(HalfInteger(Fraction(3, 2)))
        assert [m.twice for m in ms] == [3, 1, -1, -3]
