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

Both derive subtraction, division, powers, truth value, text forms and
immutability from one private base, ``_Field``, so each type writes only
its own ``+``, ``-x``, ``*``, ``inverse`` and serialization.

:class:`HalfInteger` represents (half-)integer spins exactly via twice their
value.  Its constructor is the one conversion of a spin: an int, or a float,
Fraction or decimal/fraction literal read exactly through Fraction.
"""

from __future__ import annotations

import math
import operator
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


_TRIAL_LIMIT = 10 ** 6


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Write a positive integer as ``c**2 * s`` with ``s`` squarefree.

    Returns ``(c, s)``.  Trial division stops at 10^6, so a cofactor left
    over has only larger prime factors: below 10^18 it is 1, p, p^2 or pq,
    and :func:`math.isqrt` tells p^2 apart.  A larger one is not factored:
    ValueError, naming ``n``.
    """
    if n <= 0:
        raise ValueError("expected a positive integer")
    c, s = 1, 1
    d = 2
    m = n
    while d * d <= m:
        if d > _TRIAL_LIMIT:
            if m >= _TRIAL_LIMIT ** 3:
                raise ValueError(f"cannot factor the radicand {n}: a cofactor of at least 10^18 "
                                 "has no prime factor below 10^6")
            r = math.isqrt(m)
            if r * r == m:
                return c * r, s
            break
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


def _coerced(op):
    """A binary method: ``op(self, o)``, where ``o`` is the other operand
    through ``self._coerce``; NotImplemented where that gives None."""

    def method(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else op(self, o)

    return method


class _Field:
    """The operators of a field type that follow from its own ``_coerce``,
    ``+``, unary ``-``, ``*``, ``inverse``, ``one``, ``is_zero`` and
    ``serialize``; instances are immutable."""

    __slots__ = ()

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError(f"{type(self).__name__} is immutable")

    __sub__ = _coerced(lambda a, b: a + (-b))
    __rsub__ = _coerced(lambda a, b: b + (-a))
    __truediv__ = _coerced(lambda a, b: a * b.inverse())
    __rtruediv__ = _coerced(lambda a, b: b * a.inverse())

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        result = self.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.serialize()!r})"

    def __str__(self) -> str:
        return self.serialize()


class ExactScalar(_Field):
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

    # An int operand (not a bool) skips _coerce and the lcm; same results.
    def __add__(self, other):
        if type(other) is int:
            c0, c1, c2, c3 = self._c
            return ExactScalar._from_omega((c0 + other * self._d, c1, c2, c3), self._d)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        den = math.lcm(self._d, o._d)
        m, n = den // self._d, den // o._d
        return ExactScalar._from_omega(tuple(m * x + n * y for x, y in zip(self._c, o._c)), den)

    __radd__ = __add__

    def __neg__(self):
        return ExactScalar._from_omega(tuple(-x for x in self._c), self._d)

    def __mul__(self, other):
        if type(other) is int:
            return ExactScalar._from_omega(tuple(other * x for x in self._c), self._d)
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

    # -- predicates / conversions ----------------------------------------

    def is_zero(self) -> bool:
        return not any(self._c)

    def is_real(self) -> bool:
        c = self._c
        return c[2] == 0 and c[1] + c[3] == 0

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._c == o._c and self._d == o._d

    def __hash__(self) -> int:
        # An equal int, Fraction or RadicalNumber hashes the same.
        c0, c1, c2, c3 = self._c
        if not (c1 or c2 or c3):
            return hash(c0) if self._d == 1 else hash(Fraction(c0, self._d))
        if not c2 and c1 + c3 == 0:  # real: re_rat + re_sqrt2 * sqrt(2)
            return hash((Fraction(c0, self._d), Fraction(c1, self._d)))
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
        return RadicalNumber._of(terms)

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


class RadicalNumber(_Field):
    """A finite sum ``sum_s q_s * sqrt(s)`` over squarefree positive ints s.

    The key ``s == 1`` holds the rational part.  Closed under addition and
    multiplication; division is supported when the divisor is a single term.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[int, RationalLike] | None = None) -> None:
        canonical: dict[int, Fraction] = {}
        for s, q in (terms or {}).items():
            if s <= 0:
                raise ValueError("radicand must be positive")
            c, sf = squarefree_decompose(s)
            canonical[sf] = canonical.get(sf, Fraction(0)) + _frac(q) * c
        object.__setattr__(self, "terms", {s: q for s, q in canonical.items() if q})

    # -- constructors -----------------------------------------------------

    @staticmethod
    def _of(terms: Mapping[int, Fraction]) -> "RadicalNumber":
        """From squarefree int keys with Fraction values, zeros dropped; the
        arithmetic's constructor, which factors nothing."""
        x = object.__new__(RadicalNumber)
        object.__setattr__(x, "terms", {s: q for s, q in terms.items() if q})
        return x

    @staticmethod
    def zero() -> "RadicalNumber":
        return RadicalNumber()

    @staticmethod
    def one() -> "RadicalNumber":
        return RadicalNumber._of({1: Fraction(1)})

    @staticmethod
    def from_rational(q: RationalLike) -> "RadicalNumber":
        return RadicalNumber._of({1: _frac(q)})

    # -- arithmetic -------------------------------------------------------

    def _coerce(self, other) -> "RadicalNumber | None":
        if isinstance(other, RadicalNumber):
            return other
        if isinstance(other, (int, Fraction)):
            return RadicalNumber._of({1: _frac(other)})
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
        return RadicalNumber._of(out)

    __radd__ = __add__

    def __neg__(self):
        return RadicalNumber._of({s: -q for s, q in self.terms.items()})

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out: dict[int, Fraction] = {}
        for s1, q1 in self.terms.items():
            for s2, q2 in o.terms.items():
                g = math.gcd(s1, s2)  # (s1/g)(s2/g) of squarefree s1, s2 is squarefree
                s = (s1 // g) * (s2 // g)
                out[s] = out.get(s, Fraction(0)) + q1 * q2 * g
        return RadicalNumber._of(out)

    __rmul__ = __mul__

    def inverse(self) -> "RadicalNumber":
        if not self.terms:
            raise ValueError("division by zero RadicalNumber")
        if len(self.terms) == 1:
            ((s, q),) = self.terms.items()
            # 1/(q*sqrt(s)) = (1/(q*s)) * sqrt(s)
            return RadicalNumber._of({s: 1 / (q * s)})
        raise NotImplementedError("inverse of multi-term RadicalNumber")

    # -- predicates / conversions ----------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if isinstance(other, ExactScalar) and not other.is_real():
            return False
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.terms == o.terms

    def __hash__(self) -> int:
        # An equal int, Fraction or ExactScalar hashes the same.
        t = self.terms
        if t.keys() <= {1}:
            return hash(t.get(1, 0))
        if t.keys() <= {1, 2}:
            return hash((t.get(1, 0), t[2]))
        return hash(frozenset(t.items()))

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
    return RadicalNumber._of({s: Fraction(c, q.denominator)})


_HASH_HALF = pow(2, -1, sys.hash_info.modulus)


class HalfInteger:
    """An exact (half-)integer spin or magnetic index, stored as ``2*value``.

    Made from a HalfInteger, an int, a float, a Fraction or a literal that
    matches ``_LITERAL`` (``"3"``, ``"-1/2"``, ``" 1.5 "``), each read
    exactly.  A bool or any other type raises TypeError; a malformed
    literal, ``"1/0"``, a non-finite float or a value that is not a
    half-integer raises ValueError.
    """

    __slots__ = ("twice",)

    # Optional whitespace, an optional sign, digits, then optionally
    # /digits or .digits; ASCII only, so no "1_0", "1e3" or non-ASCII digits.
    _LITERAL = re.compile(r"\s*[+-]?\d+(?:/\d+|\.\d+)?\s*\Z", re.ASCII)
    # The same without the fraction part: the literal of parse_int.
    _INTEGER = re.compile(r"\s*[+-]?\d+\s*\Z", re.ASCII)

    def __init__(self, value: "HalfInteger | RationalLike | float | str") -> None:
        if isinstance(value, HalfInteger):
            tw = value.twice
        elif isinstance(value, bool) or not isinstance(value, (int, str, float, Fraction)):
            raise TypeError(f"cannot make HalfInteger from {value!r}")
        elif isinstance(value, int):
            tw = 2 * value
        else:
            tw = None
            if not isinstance(value, str) or HalfInteger._LITERAL.match(value):
                try:
                    tw = 2 * Fraction(value)
                except (ValueError, OverflowError, ZeroDivisionError):  # NaN, an infinity, "1/0"
                    pass
            if tw is None or tw.denominator != 1:
                raise ValueError(f"not a half-integer: {value!r}")
            tw = tw.numerator
        object.__setattr__(self, "twice", tw)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("HalfInteger is immutable")

    @staticmethod
    def from_twice(twice: int) -> "HalfInteger":
        """The half-integer ``twice / 2``, made without ``__init__``'s dispatch.
        ``twice`` is an int or has ``__index__``; a bool or anything else is a TypeError."""
        if type(twice) is not int:
            if isinstance(twice, bool):
                raise TypeError(f"cannot make HalfInteger from twice={twice!r}")
            twice = operator.index(twice)
        h = object.__new__(HalfInteger)
        object.__setattr__(h, "twice", twice)
        return h

    # -- arithmetic / ordering -------------------------------------------

    def _coerce(self, other) -> "HalfInteger | None":
        if isinstance(other, HalfInteger):
            return other
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            try:
                return HalfInteger(other)
            except ValueError:
                return None
        return None

    __add__ = __radd__ = _coerced(lambda a, b: HalfInteger.from_twice(a.twice + b.twice))

    def __neg__(self):
        return HalfInteger.from_twice(-self.twice)

    __sub__ = _coerced(lambda a, b: HalfInteger.from_twice(a.twice - b.twice))
    __rsub__ = _coerced(lambda a, b: HalfInteger.from_twice(b.twice - a.twice))
    __eq__ = _coerced(lambda a, b: a.twice == b.twice)
    __lt__ = _coerced(lambda a, b: a.twice < b.twice)
    __le__ = _coerced(lambda a, b: a.twice <= b.twice)
    __gt__ = _coerced(lambda a, b: a.twice > b.twice)
    __ge__ = _coerced(lambda a, b: a.twice >= b.twice)

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


def parse_int(text: str) -> int:
    """The int of a literal matching ``HalfInteger._INTEGER``; ValueError for
    anything else, such as the "1_0" or non-ASCII digits that int() takes."""
    if not HalfInteger._INTEGER.match(text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)

