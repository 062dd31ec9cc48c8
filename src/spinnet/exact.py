"""Exact scalar arithmetic.

Two number types cover everything the diagram engine and the closed-form
oracle need:

* :class:`ExactScalar` -- elements of the ring Q(i)[sqrt(2)], i.e. numbers of
  the form ``(a + b*sqrt(2)) + (c + d*sqrt(2))*i`` with rational ``a..d``.
  Every ZXH diagram with Clifford phases evaluates inside this ring.
* :class:`RadicalNumber` -- finite Q-linear combinations of square roots of
  squarefree positive integers, ``sum_s q_s * sqrt(s)``.  Wigner symbols and
  normalisation factors live here.

:class:`HalfInteger` represents (half-)integer spins exactly via twice their
value.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, Mapping, Union

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


class ExactScalar:
    """A number ``(a + b*sqrt(2)) + (c + d*sqrt(2))*i`` with rational a,b,c,d.

    Immutable; supports field arithmetic (division requires a nonzero
    divisor), exact equality, and a canonical text serialization of the form
    ``"a/b + c/d*r2 + (e/f + g/h*r2)*i"``.
    """

    __slots__ = ("re_rat", "re_sqrt2", "im_rat", "im_sqrt2")

    def __init__(
        self,
        re_rat: RationalLike = 0,
        re_sqrt2: RationalLike = 0,
        im_rat: RationalLike = 0,
        im_sqrt2: RationalLike = 0,
    ) -> None:
        object.__setattr__(self, "re_rat", _frac(re_rat))
        object.__setattr__(self, "re_sqrt2", _frac(re_sqrt2))
        object.__setattr__(self, "im_rat", _frac(im_rat))
        object.__setattr__(self, "im_sqrt2", _frac(im_sqrt2))

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("ExactScalar is immutable")

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero() -> "ExactScalar":
        return ExactScalar()

    @staticmethod
    def one() -> "ExactScalar":
        return ExactScalar(1)

    @staticmethod
    def i() -> "ExactScalar":
        return ExactScalar(0, 0, 1, 0)

    @staticmethod
    def sqrt2() -> "ExactScalar":
        return ExactScalar(0, 1)

    @staticmethod
    def inv_sqrt2() -> "ExactScalar":
        return ExactScalar(0, Fraction(1, 2))

    @staticmethod
    def from_rational(q: RationalLike) -> "ExactScalar":
        return ExactScalar(q)

    @staticmethod
    def phase_quarter(k: int) -> "ExactScalar":
        """``exp(i * k * pi / 4)`` for integer k (an 8th root of unity)."""
        k %= 8
        table = {
            0: ExactScalar(1),
            1: ExactScalar(0, 0, 0, Fraction(1, 2)) + ExactScalar(0, Fraction(1, 2)),
            2: ExactScalar(0, 0, 1),
            3: ExactScalar(0, -Fraction(1, 2), 0, Fraction(1, 2)),
            4: ExactScalar(-1),
            5: ExactScalar(0, -Fraction(1, 2), 0, -Fraction(1, 2)),
            6: ExactScalar(0, 0, -1),
            7: ExactScalar(0, Fraction(1, 2), 0, -Fraction(1, 2)),
        }
        return table[k]

    # -- arithmetic -------------------------------------------------------

    def _coerce(self, other) -> "ExactScalar | None":
        if isinstance(other, ExactScalar):
            return other
        if isinstance(other, (int, Fraction)):
            return ExactScalar(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ExactScalar(
            self.re_rat + o.re_rat,
            self.re_sqrt2 + o.re_sqrt2,
            self.im_rat + o.im_rat,
            self.im_sqrt2 + o.im_sqrt2,
        )

    __radd__ = __add__

    def __neg__(self):
        return ExactScalar(-self.re_rat, -self.re_sqrt2, -self.im_rat, -self.im_sqrt2)

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
        # (a1 + b1 r + (c1 + d1 r) i)(a2 + b2 r + (c2 + d2 r) i), r^2 = 2.
        a1, b1, c1, d1 = self.re_rat, self.re_sqrt2, self.im_rat, self.im_sqrt2
        a2, b2, c2, d2 = o.re_rat, o.re_sqrt2, o.im_rat, o.im_sqrt2
        re_rat = a1 * a2 + 2 * b1 * b2 - c1 * c2 - 2 * d1 * d2
        re_s2 = a1 * b2 + b1 * a2 - c1 * d2 - d1 * c2
        im_rat = a1 * c2 + c1 * a2 + 2 * (b1 * d2 + d1 * b2)
        im_s2 = a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2
        return ExactScalar(re_rat, re_s2, im_rat, im_s2)

    __rmul__ = __mul__

    def conjugate(self) -> "ExactScalar":
        """Complex conjugate."""
        return ExactScalar(self.re_rat, self.re_sqrt2, -self.im_rat, -self.im_sqrt2)

    def _sqrt2_conjugate(self) -> "ExactScalar":
        """Galois conjugate sending sqrt(2) to -sqrt(2)."""
        return ExactScalar(self.re_rat, -self.re_sqrt2, self.im_rat, -self.im_sqrt2)

    def inverse(self) -> "ExactScalar":
        """Multiplicative inverse (ValueError on zero)."""
        if self.is_zero():
            raise ValueError("division by zero ExactScalar")
        # Multiply by the sqrt(2)-conjugate to land in Q(i), then by the
        # complex conjugate to land in Q.
        g = self._sqrt2_conjugate()
        p = self * g  # in Q(i): re_sqrt2 == im_sqrt2 == 0
        pc = p.conjugate()
        n = p * pc  # rational
        assert n.re_sqrt2 == 0 and n.im_rat == 0 and n.im_sqrt2 == 0
        inv_n = Fraction(1, 1) / n.re_rat
        return g * pc * ExactScalar(inv_n)

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
        return (
            self.re_rat == 0
            and self.re_sqrt2 == 0
            and self.im_rat == 0
            and self.im_sqrt2 == 0
        )

    def is_real(self) -> bool:
        return self.im_rat == 0 and self.im_sqrt2 == 0

    def is_rational(self) -> bool:
        return self.is_real() and self.re_sqrt2 == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (
            self.re_rat == o.re_rat
            and self.re_sqrt2 == o.re_sqrt2
            and self.im_rat == o.im_rat
            and self.im_sqrt2 == o.im_sqrt2
        )

    def __hash__(self) -> int:
        return hash((self.re_rat, self.re_sqrt2, self.im_rat, self.im_sqrt2))

    def to_complex(self) -> complex:
        return complex(
            float(self.re_rat) + float(self.re_sqrt2) * SQRT2,
            float(self.im_rat) + float(self.im_sqrt2) * SQRT2,
        )

    __complex__ = to_complex

    def to_radical(self) -> "RadicalNumber":
        """Convert a real value to a RadicalNumber (ValueError if imaginary)."""
        if not self.is_real():
            raise ValueError(f"not a real number: {self}")
        terms: dict[int, Fraction] = {}
        if self.re_rat:
            terms[1] = self.re_rat
        if self.re_sqrt2:
            terms[2] = self.re_sqrt2
        return RadicalNumber(terms)

    # -- serialization ----------------------------------------------------

    def serialize(self) -> str:
        """Canonical form ``"a/b + c/d*r2 + (e/f + g/h*r2)*i"``."""

        def q(x: Fraction) -> str:
            return f"{x.numerator}/{x.denominator}"

        return (
            f"{q(self.re_rat)} + {q(self.re_sqrt2)}*r2 + "
            f"({q(self.im_rat)} + {q(self.im_sqrt2)}*r2)*i"
        )

    _PATTERN = re.compile(
        r"^\s*(-?\d+)/(\d+)\s*\+\s*(-?\d+)/(\d+)\*r2\s*\+\s*"
        r"\(\s*(-?\d+)/(\d+)\s*\+\s*(-?\d+)/(\d+)\*r2\s*\)\*i\s*$"
    )

    @staticmethod
    def deserialize(text: str) -> "ExactScalar":
        m = ExactScalar._PATTERN.match(text)
        if not m:
            raise ValueError(f"malformed ExactScalar literal: {text!r}")
        g = [int(x) for x in m.groups()]
        return ExactScalar(
            Fraction(g[0], g[1]),
            Fraction(g[2], g[3]),
            Fraction(g[4], g[5]),
            Fraction(g[6], g[7]),
        )

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

    def is_rational(self) -> bool:
        return all(s == 1 for s in self.terms)

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"not rational: {self}")
        return self.terms.get(1, Fraction(0))

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
            if not m:
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
        return hash(Fraction(self.twice, 2))

    # -- conversions ------------------------------------------------------

    def is_integer(self) -> bool:
        return self.twice % 2 == 0

    def as_fraction(self) -> Fraction:
        return Fraction(self.twice, 2)

    def as_int(self) -> int:
        if not self.is_integer():
            raise ValueError(f"not an integer: {self}")
        return self.twice // 2

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
