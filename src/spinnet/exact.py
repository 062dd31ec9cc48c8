"""Exact scalar arithmetic.

Two number types cover everything the diagram engine and the closed-form
oracle need:

* :class:`ExactScalar` -- elements of the field Q(i)[sqrt(2)] = Q(w),
  w = e^(i pi/4), i.e. numbers ``(a + b*sqrt(2)) + (c + d*sqrt(2))*i``
  with rational ``a..d``.  Each is held as four integer coefficients of
  ``1, w, w**2, w**3`` over one positive integer denominator, in lowest
  terms; the contraction in :mod:`spinnet.tensor` uses the same form.
  Every ZXH diagram with phases in (pi/4)Z evaluates inside this field.
* :class:`RadicalNumber` -- finite Q-linear combinations of square roots of
  squarefree positive integers, ``sum_s q_s * sqrt(s)``.  Wigner symbols and
  normalisation factors live here.

:class:`HalfInteger` represents (half-)integer spins exactly via twice their
value.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from typing import Mapping, Union

__all__ = [
    "ExactScalar",
    "RadicalNumber",
    "HalfInteger",
    "sqrt_rational",
    "factorial",
    "squarefree_decompose",
]

SQRT2 = math.sqrt(2.0)

RationalLike = Union[int, Fraction]


def factorial(n: int) -> int:
    """Exact factorial; raises ValueError for negative arguments."""
    if n < 0:
        raise ValueError(f"factorial of negative number: {n}")
    return math.factorial(n)


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Write a positive integer as ``c**2 * s`` with ``s`` squarefree.

    Returns ``(c, s)``.
    """
    if n <= 0:
        raise ValueError("expected a positive integer")
    c, s = 1, 1
    d = 2
    m = n
    while d * d <= m:
        exp = 0
        while m % d == 0:
            m //= d
            exp += 1
        if exp:
            c *= d ** (exp // 2)
            if exp % 2:
                s *= d
        d += 1 if d == 2 else 2
    s *= m
    return c, s


def _frac(x: RationalLike) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _fold(p: tuple, q: tuple) -> tuple:
    """Product of two omega-polynomials of degree < 4, folded by omega^4 = -1."""
    p0, p1, p2, p3 = p
    q0, q1, q2, q3 = q
    return (
        p0 * q0 - p1 * q3 - p2 * q2 - p3 * q1,
        p0 * q1 + p1 * q0 - p2 * q3 - p3 * q2,
        p0 * q2 + p1 * q1 + p2 * q0 - p3 * q3,
        p0 * q3 + p1 * q2 + p2 * q1 + p3 * q0,
    )


def _galois(c: tuple, k: int) -> tuple:
    """Image of ``sum_j c_j omega^j`` under the field map omega -> omega^k."""
    out = [0, 0, 0, 0]
    for j, x in enumerate(c):
        e = j * k % 8
        out[e % 4] += x if e < 4 else -x
    return tuple(out)


class ExactScalar:
    """An element ``(c0 + c1*w + c2*w**2 + c3*w**3) / den`` of Q(w), w = e^(i pi/4).

    The coefficients ``c0..c3`` and ``den`` are Python ints, ``den > 0``
    and ``gcd(den, c0, .., c3) == 1``, so each value has exactly one form
    (zero is ``((0, 0, 0, 0), 1)``).  Q(w) is Q(i)[sqrt(2)]: with
    ``i = w**2`` and ``sqrt(2) = w - w**3`` the number
    ``(a + b*sqrt(2)) + (c + d*sqrt(2))*i`` has coefficients
    ``(a, b + d, c, d - b)`` over their least common denominator.  The
    constructor takes ``a, b, c, d``, which stay readable as the
    :class:`~fractions.Fraction` properties ``re_rat``, ``re_sqrt2``,
    ``im_rat`` and ``im_sqrt2``; :attr:`omega` gives the integer form.

    Immutable; supports field arithmetic (division requires a nonzero
    divisor), exact equality, and a canonical text serialization of the form
    ``"a/b + c/d*r2 + (e/f + g/h*r2)*i"``.
    """

    __slots__ = ("_c", "_d")

    def __init__(
        self,
        re_rat: RationalLike = 0,
        re_sqrt2: RationalLike = 0,
        im_rat: RationalLike = 0,
        im_sqrt2: RationalLike = 0,
    ) -> None:
        parts = [
            q if isinstance(q, (int, Fraction)) else Fraction(q)
            for q in (re_rat, re_sqrt2, im_rat, im_sqrt2)
        ]
        den = math.lcm(*(q.denominator for q in parts))
        a, b, c, d = (q.numerator * (den // q.denominator) for q in parts)
        self._set((a, b + d, c, d - b), den)

    def _set(self, c: tuple, den: int) -> None:
        g = math.gcd(den, *c)
        if g != 1:
            c = tuple(x // g for x in c)
            den //= g
        object.__setattr__(self, "_c", c)
        object.__setattr__(self, "_d", den)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("ExactScalar is immutable")

    @staticmethod
    def _from_omega(c: tuple, den: int) -> "ExactScalar":
        """``sum_k c[k] * w**k / den`` from ints with ``den > 0``, reduced to lowest terms."""
        x = object.__new__(ExactScalar)
        x._set(c, den)
        return x

    @property
    def omega(self) -> tuple[tuple[int, int, int, int], int]:
        """``((c0, c1, c2, c3), den)``: the value is ``sum_k c_k w**k / den``."""
        return self._c, self._d

    @property
    def re_rat(self) -> Fraction:
        return Fraction(self._c[0], self._d)

    @property
    def re_sqrt2(self) -> Fraction:
        return Fraction(self._c[1] - self._c[3], 2 * self._d)

    @property
    def im_rat(self) -> Fraction:
        return Fraction(self._c[2], self._d)

    @property
    def im_sqrt2(self) -> Fraction:
        return Fraction(self._c[1] + self._c[3], 2 * self._d)

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero() -> "ExactScalar":
        return ExactScalar._from_omega((0, 0, 0, 0), 1)

    @staticmethod
    def one() -> "ExactScalar":
        return ExactScalar._from_omega((1, 0, 0, 0), 1)

    @staticmethod
    def sqrt2() -> "ExactScalar":
        return ExactScalar._from_omega((0, 1, 0, -1), 1)

    @staticmethod
    def inv_sqrt2() -> "ExactScalar":
        return ExactScalar._from_omega((0, 1, 0, -1), 2)

    @staticmethod
    def phase_quarter(k: int) -> "ExactScalar":
        """``exp(i * k * pi / 4) = w**k`` for integer k (an 8th root of unity)."""
        c = [0, 0, 0, 0]
        c[k % 4] = -1 if k % 8 >= 4 else 1
        return ExactScalar._from_omega(tuple(c), 1)

    # -- arithmetic -------------------------------------------------------

    @staticmethod
    def _coerce(other) -> "ExactScalar | None":
        if isinstance(other, ExactScalar):
            return other
        if isinstance(other, (int, Fraction)):
            return ExactScalar._from_omega((other.numerator, 0, 0, 0), other.denominator)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        den = math.lcm(self._d, o._d)
        m, n = den // self._d, den // o._d
        return ExactScalar._from_omega(tuple(m * x + n * y for x, y in zip(self._c, o._c)), den)

    __radd__ = __add__

    def __neg__(self):
        return ExactScalar._from_omega(tuple(-x for x in self._c), self._d)

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
        return ExactScalar._from_omega(_fold(self._c, o._c), self._d * o._d)

    __rmul__ = __mul__

    def conjugate(self) -> "ExactScalar":
        """Complex conjugate, the field map w -> w**7 = 1/w."""
        return ExactScalar._from_omega(_galois(self._c, 7), self._d)

    def inverse(self) -> "ExactScalar":
        """Multiplicative inverse (ValueError on zero).

        The product of the images of ``x`` under w -> w**3, w**5, w**7,
        divided by the norm: ``x`` times that product, a positive rational.
        """
        if self.is_zero():
            raise ValueError("division by zero ExactScalar")
        c = self._c
        adj = _fold(_fold(_galois(c, 3), _galois(c, 5)), _galois(c, 7))
        norm = _fold(c, adj)[0]  # |x|^2 |x(w -> w^3)|^2 > 0; w^1..w^3 vanish
        return ExactScalar._from_omega(tuple(self._d * x for x in adj), norm)

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

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        result = ExactScalar.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- predicates / conversions ----------------------------------------

    def is_zero(self) -> bool:
        return not any(self._c)

    def is_real(self) -> bool:
        c = self._c
        return c[2] == 0 and c[1] + c[3] == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._c == o._c and self._d == o._d

    def __hash__(self) -> int:
        return hash((self._c, self._d))

    def to_complex(self) -> complex:
        c0, c1, c2, c3 = self._c
        den = self._d
        # w = (1 + i)/sqrt(2), w**3 = (-1 + i)/sqrt(2)
        return complex(
            c0 / den + (c1 - c3) / (2 * den) * SQRT2,
            c2 / den + (c1 + c3) / (2 * den) * SQRT2,
        )

    __complex__ = to_complex

    def to_radical(self) -> "RadicalNumber":
        """Convert a real value to a RadicalNumber (ValueError if imaginary)."""
        if not self.is_real():
            raise ValueError(f"not a real number: {self}")
        c0, c1, _, c3 = self._c
        terms: dict[int, Fraction] = {}
        if c0:
            terms[1] = self.re_rat
        if c1 != c3:
            terms[2] = self.re_sqrt2
        return RadicalNumber(terms)

    # -- serialization ----------------------------------------------------

    def serialize(self) -> str:
        """Canonical form ``"a/b + c/d*r2 + (e/f + g/h*r2)*i"``."""

        def q(n: int, d: int) -> str:
            g = math.gcd(n, d)
            return f"{n // g}/{d // g}"

        (c0, c1, c2, c3), den = self._c, self._d
        return (
            f"{q(c0, den)} + {q(c1 - c3, 2 * den)}*r2 + "
            f"({q(c2, den)} + {q(c1 + c3, 2 * den)}*r2)*i"
        )

    _PATTERN = re.compile(
        r"^\s*(-?\d+)/(\d+)\s*\+\s*(-?\d+)/(\d+)\*r2\s*\+\s*"
        r"\(\s*(-?\d+)/(\d+)\s*\+\s*(-?\d+)/(\d+)\*r2\s*\)\*i\s*$"
    )

    @staticmethod
    def deserialize(text: str) -> "ExactScalar":
        m = ExactScalar._PATTERN.match(text)
        g = [int(x) for x in m.groups()] if m else []
        if not m or 0 in g[1::2]:
            raise ValueError(f"malformed ExactScalar literal: {text!r}")
        return ExactScalar(*(Fraction(n, d) for n, d in zip(g[::2], g[1::2])))

    def __repr__(self) -> str:
        return f"ExactScalar({self.serialize()!r})"

    def __str__(self) -> str:
        return self.serialize()


class RadicalNumber:
    """A finite sum ``sum_s q_s * sqrt(s)`` over squarefree positive ints s.

    The key ``s == 1`` holds the rational part.  Closed under addition and
    multiplication; division is supported when the divisor is a single term.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[int, RationalLike] | None = None) -> None:
        canonical: dict[int, Fraction] = {}
        if terms:
            for s, q in terms.items():
                if s == 1:
                    sf, qq = 1, _frac(q)
                else:
                    if s <= 0:
                        raise ValueError("radicand must be positive")
                    c, sf = squarefree_decompose(s)
                    qq = _frac(q) * c
                if qq:
                    canonical[sf] = canonical.get(sf, Fraction(0)) + qq
                    if not canonical[sf]:
                        del canonical[sf]
        object.__setattr__(self, "terms", canonical)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("RadicalNumber is immutable")

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero() -> "RadicalNumber":
        return RadicalNumber()

    @staticmethod
    def one() -> "RadicalNumber":
        return RadicalNumber({1: 1})

    @staticmethod
    def from_rational(q: RationalLike) -> "RadicalNumber":
        return RadicalNumber({1: q})

    # -- arithmetic -------------------------------------------------------

    def _coerce(self, other) -> "RadicalNumber | None":
        if isinstance(other, RadicalNumber):
            return other
        if isinstance(other, (int, Fraction)):
            return RadicalNumber({1: other})
        if isinstance(other, ExactScalar):
            return other.to_radical()
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        for s, q in o.terms.items():
            out[s] = out.get(s, Fraction(0)) + q
        return RadicalNumber(out)

    __radd__ = __add__

    def __neg__(self):
        return RadicalNumber({s: -q for s, q in self.terms.items()})

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
        out: dict[int, Fraction] = {}
        for s1, q1 in self.terms.items():
            for s2, q2 in o.terms.items():
                g = math.gcd(s1, s2)
                s = (s1 // g) * (s2 // g)
                q = q1 * q2 * g
                out[s] = out.get(s, Fraction(0)) + q
        return RadicalNumber(out)

    __rmul__ = __mul__

    def inverse(self) -> "RadicalNumber":
        if not self.terms:
            raise ValueError("division by zero RadicalNumber")
        if len(self.terms) == 1:
            ((s, q),) = self.terms.items()
            # 1/(q*sqrt(s)) = (1/(q*s)) * sqrt(s)
            return RadicalNumber({s: Fraction(1, 1) / (q * s)})
        raise NotImplementedError("inverse of multi-term RadicalNumber")

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

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        result = RadicalNumber.one()
        for _ in range(n):
            result = result * self
        return result

    # -- predicates / conversions ----------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.terms == o.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def to_float(self) -> float:
        return sum(float(q) * math.sqrt(s) for s, q in self.terms.items())

    __float__ = to_float

    def to_exact_scalar(self) -> ExactScalar:
        """Convert into Q(i)[sqrt(2)] if only sqrt(1)/sqrt(2) terms occur."""
        for s in self.terms:
            if s not in (1, 2):
                raise ValueError(f"cannot embed sqrt({s}) into Q(i)[sqrt(2)]")
        return ExactScalar(self.terms.get(1, 0), self.terms.get(2, 0))

    # -- serialization ----------------------------------------------------

    def serialize(self) -> str:
        """Canonical form, e.g. ``"1/6"``, ``"480*sqrt(2)"``, ``"-1/3*sqrt(3)"``.

        Terms are sorted by radicand; zero serializes as ``"0"``.
        """
        if not self.terms:
            return "0"
        parts = []
        for s in sorted(self.terms):
            q = self.terms[s]
            if s == 1:
                parts.append(str(q))
            else:
                parts.append(f"{q}*sqrt({s})")
        return " + ".join(parts)

    _TERM = re.compile(r"^\s*(-?\d+(?:/\d+)?)\s*(?:\*\s*sqrt\((\d+)\))?\s*$")

    @staticmethod
    def deserialize(text: str) -> "RadicalNumber":
        text = text.strip()
        if text == "0":
            return RadicalNumber.zero()
        out: dict[int, Fraction] = {}
        for raw in text.split("+"):
            m = RadicalNumber._TERM.match(raw)
            if not m or re.search(r"/0+$", m.group(1)):
                raise ValueError(f"malformed RadicalNumber literal: {text!r}")
            q = Fraction(m.group(1))
            s = int(m.group(2)) if m.group(2) else 1
            out[s] = out.get(s, Fraction(0)) + q
        return RadicalNumber(out)

    def __repr__(self) -> str:
        return f"RadicalNumber({self.serialize()!r})"

    def __str__(self) -> str:
        return self.serialize()


def sqrt_rational(q: RationalLike) -> RadicalNumber:
    """Exact square root of a nonnegative rational, as a RadicalNumber.

    ``sqrt(a/b) = (c/b) * sqrt(s)`` with ``a*b = c^2 * s``, s squarefree.
    """
    q = _frac(q)
    if q < 0:
        raise ValueError("square root of a negative rational")
    if q == 0:
        return RadicalNumber.zero()
    c, s = squarefree_decompose(q.numerator * q.denominator)
    return RadicalNumber({s: Fraction(c, q.denominator)})


_HASH_HALF = pow(2, -1, sys.hash_info.modulus)


class HalfInteger:
    """An exact (half-)integer spin or magnetic index, stored as ``2*value``."""

    __slots__ = ("twice",)

    def __init__(self, value: "HalfInteger | RationalLike | float | str") -> None:
        if isinstance(value, HalfInteger):
            tw = value.twice
        elif isinstance(value, str):
            tw = HalfInteger.parse(value).twice
        elif isinstance(value, int):
            tw = 2 * value
        elif isinstance(value, Fraction):
            tw = value * 2
            if tw.denominator != 1:
                raise ValueError(f"not a half-integer: {value}")
            tw = tw.numerator
        elif isinstance(value, float):
            tw = value * 2
            if tw != int(tw):
                raise ValueError(f"not a half-integer: {value}")
            tw = int(tw)
        else:
            raise TypeError(f"cannot make HalfInteger from {value!r}")
        object.__setattr__(self, "twice", tw)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("HalfInteger is immutable")

    @staticmethod
    def from_twice(twice: int) -> "HalfInteger":
        h = HalfInteger(0)
        object.__setattr__(h, "twice", int(twice))
        return h

    @staticmethod
    def parse(text: str) -> "HalfInteger":
        """Parse ``"1/2"``, ``"0.5"``, ``"3"``, ``"-3/2"``."""
        text = text.strip()
        try:
            if "/" in text:
                return HalfInteger(Fraction(text))
            if "." in text:
                return HalfInteger(float(text))
            return HalfInteger(int(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed half-integer literal: {text!r}") from exc

    # -- arithmetic / ordering -------------------------------------------

    def _coerce(self, other) -> "HalfInteger | None":
        if isinstance(other, HalfInteger):
            return other
        if isinstance(other, (int, Fraction)):
            try:
                return HalfInteger(other)
            except ValueError:
                return None
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return HalfInteger.from_twice(self.twice + o.twice)

    __radd__ = __add__

    def __neg__(self):
        return HalfInteger.from_twice(-self.twice)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return HalfInteger.from_twice(self.twice - o.twice)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return HalfInteger.from_twice(o.twice - self.twice)

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.twice == o.twice

    def __lt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.twice < o.twice

    def __le__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.twice <= o.twice

    def __gt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.twice > o.twice

    def __ge__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.twice >= o.twice

    def __hash__(self) -> int:
        # hash(Fraction(twice, 2)) without building it: 1/2 taken modulo the hash prime.
        return hash(self.twice * _HASH_HALF)

    # -- conversions ------------------------------------------------------

    def is_integer(self) -> bool:
        return self.twice % 2 == 0

    def __float__(self) -> float:
        return self.twice / 2.0

    def __str__(self) -> str:
        if self.is_integer():
            return str(self.twice // 2)
        return f"{self.twice}/2"

    def __repr__(self) -> str:
        return f"HalfInteger({str(self)!r})"


def half_integer_range(j: HalfInteger) -> list[HalfInteger]:
    """Magnetic indices ``m = j, j-1, ..., -j`` in decreasing order."""
    return [HalfInteger.from_twice(t) for t in range(j.twice, -j.twice - 1, -2)]
