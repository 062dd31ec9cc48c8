"""Closed-form Wigner recoupling symbols with exact radical arithmetic.

This module is an independent oracle for the diagrammatic engine: it only
uses factorial sum formulas over exact rationals and square roots
(:class:`~spinnet.exact.RadicalNumber`), and shares no code with the tensor
contraction path.

Conventions: the 3jm and 6j symbols are Racah's single sums (Racah, Phys.
Rev. 62, 438, 1942; Edmonds, *Angular Momentum in Quantum Mechanics*, 1957),
each one integer factorial sum over a common denominator times one square
root of a rational; Clebsch-Gordan coefficients follow from the 3jm symbol by
the standard relation; the 4jm symbol couples (j1 j2) and (j3 j4) through an
intermediate spin j with a (-1)^(j-m) metric.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from typing import Callable, Sequence

from .exact import (
    HalfInteger,
    RadicalNumber,
    factorial,
    half_integer_range,
    sqrt_rational,
)

__all__ = [
    "cg",
    "w3jm",
    "w4jm",
    "w6j",
    "triangle_ok",
    "yutsis_matrix_3",
    "yutsis_matrix_4",
    "invariant_theta",
    "invariant_loop",
]

SpinLike = HalfInteger | int | Fraction | str | float


def _hi(x: SpinLike) -> HalfInteger:
    return x if isinstance(x, HalfInteger) else HalfInteger(x)


def _as_int(j: HalfInteger, what: str = "value") -> int:
    if j.twice % 2:
        raise ValueError(f"{what} {j} is not an integer")
    return j.twice // 2


def _sign_pow(x: HalfInteger | int) -> int:
    """(-1)**x for an integer-valued (half-)integer expression."""
    n = x if isinstance(x, int) else _as_int(x, "sign exponent")
    return -1 if n % 2 else 1


def _admissible(a: int, b: int, c: int) -> bool:
    """Triangle rule and integer sum for twice-spins a, b, c."""
    return min(a, b, c) >= 0 and (a + b + c) % 2 == 0 and abs(a - b) <= c <= a + b


def triangle_ok(j1: SpinLike, j2: SpinLike, j3: SpinLike) -> bool:
    """Admissibility of a spin triad: triangle inequality + integer sum."""
    return _admissible(_hi(j1).twice, _hi(j2).twice, _hi(j3).twice)


def _delta2(a: int, b: int, c: int) -> tuple[int, int]:
    """Triangle coefficient (a+b-c)!(a-b+c)!(-a+b+c)!/(a+b+c+1)! of an
    admissible triad of twice-spins, as (numerator, denominator)."""
    return (
        factorial((a + b - c) // 2) * factorial((a - b + c) // 2) * factorial((b + c - a) // 2),
        factorial((a + b + c) // 2 + 1),
    )


def _racah_sum(
    lows: Sequence[int], highs: Sequence[int], weight: Callable[[int], int]
) -> Fraction:
    """Sum over max(lows) <= t <= min(highs) of
    (-1)^t weight(t) / (prod (t - l)! * prod (h - t)!), as one integer sum
    over the common denominator of its terms."""
    t0, t1 = max(lows), min(highs)
    den = prod(factorial(t1 - l) for l in lows) * prod(factorial(h - t0) for h in highs)
    num = 0
    for t in range(t0, t1 + 1):
        term = weight(t) * den // (
            prod(factorial(t - l) for l in lows) * prod(factorial(h - t) for h in highs)
        )
        num += -term if t % 2 else term
    return Fraction(num, den)


def w3jm(
    j1: SpinLike, j2: SpinLike, j3: SpinLike, m1: SpinLike, m2: SpinLike, m3: SpinLike
) -> RadicalNumber:
    """Wigner 3jm symbol (j1 j2 j3; m1 m2 m3), exact, by Racah's single sum:
    (-1)^(j1-j2-m3) times the square root of the triangle coefficient of
    (j1 j2 j3) and of prod (ji+mi)! (ji-mi)!, times
    sum_k (-1)^k / (k! (j3-j2+m1+k)! (j3-j1-m2+k)! (j1+j2-j3-k)! (j1-m1-k)! (j2+m2-k)!).
    """
    a, b, c = _hi(j1).twice, _hi(j2).twice, _hi(j3).twice
    x, y, z = _hi(m1).twice, _hi(m2).twice, _hi(m3).twice
    if x + y + z or not _admissible(a, b, c):
        return RadicalNumber.zero()
    if any((t + u) % 2 or abs(u) > t for t, u in ((a, x), (b, y), (c, z))):
        return RadicalNumber.zero()
    total = _racah_sum(
        (0, (b - c - x) // 2, (a - c + y) // 2),
        ((a + b - c) // 2, (a - x) // 2, (b + y) // 2),
        lambda t: 1,
    )
    num, den = _delta2(a, b, c)
    for t, u in ((a, x), (b, y), (c, z)):
        num *= factorial((t + u) // 2) * factorial((t - u) // 2)
    return sqrt_rational(Fraction(num, den)) * (_sign_pow((a - b - z) // 2) * total)


def cg(
    j1: SpinLike, m1: SpinLike, j2: SpinLike, m2: SpinLike, j: SpinLike, m: SpinLike
) -> RadicalNumber:
    """Clebsch-Gordan coefficient <j1 m1; j2 m2 | j m>, exact:
    (-1)^(j1-j2+m) sqrt(2j+1) (j1 j2 j; m1 m2 -m)."""
    m = _hi(m)
    w = w3jm(j1, j2, j, m1, m2, -m)
    if w.is_zero():
        return w
    return _sign_pow(_hi(j1) - _hi(j2) + m) * sqrt_rational(_hi(j).twice + 1) * w


def _sum_4jm(
    w3: Callable[..., RadicalNumber], j1, j2, j3, j4, m1, m2, m3, m4, j: HalfInteger
) -> RadicalNumber:
    """The 4jm sum of :func:`w4jm` with ``w3`` as its 3jm symbol."""
    total = RadicalNumber.zero()
    for m in half_integer_range(j):
        a = w3(j1, j2, j, m1, m2, m)
        if a.is_zero():
            continue
        b = w3(j, j3, j4, -m, m3, m4)
        if b.is_zero():
            continue
        total = total + _sign_pow(j - m) * a * b
    return total


def w4jm(
    j1: SpinLike,
    j2: SpinLike,
    j3: SpinLike,
    j4: SpinLike,
    m1: SpinLike,
    m2: SpinLike,
    m3: SpinLike,
    m4: SpinLike,
    j: SpinLike,
) -> RadicalNumber:
    """Wigner 4jm symbol with intermediate spin j, exact.

    Sum over m of (-1)^(j-m) (j1 j2 j; m1 m2 m)(j j3 j4; -m m3 m4).
    """
    return _sum_4jm(w3jm, j1, j2, j3, j4, m1, m2, m3, m4, _hi(j))


def w6j(
    j1: SpinLike, j2: SpinLike, j3: SpinLike, j4: SpinLike, j5: SpinLike, j6: SpinLike
) -> RadicalNumber:
    """Wigner 6j symbol {j1 j2 j3; j4 j5 j6}, exact, by Racah's single sum:
    the square root of the four triangle coefficients of the triads
    (j1 j2 j3), (j1 j5 j6), (j4 j2 j6), (j4 j5 j3), times
    sum_t (-1)^t (t+1)! / (prod (t - triad sum)! * prod (quad sum - t)!).
    """
    a1, a2, a3, a4, a5, a6 = (_hi(j).twice for j in (j1, j2, j3, j4, j5, j6))
    triads = ((a1, a2, a3), (a1, a5, a6), (a4, a2, a6), (a4, a5, a3))
    if not all(_admissible(*t) for t in triads):
        return RadicalNumber.zero()
    total = _racah_sum(
        [sum(t) // 2 for t in triads],
        ((a1 + a2 + a4 + a5) // 2, (a2 + a3 + a5 + a6) // 2, (a3 + a1 + a6 + a4) // 2),
        lambda t: factorial(t + 1),
    )
    return sqrt_rational(prod(Fraction(*_delta2(*t)) for t in triads)) * total


# -- matrix representations ----------------------------------------------


def _m_tuples(spins: Sequence[HalfInteger]) -> list[tuple[HalfInteger, ...]]:
    """All magnetic-index tuples, decreasing within each spin, first spin
    most significant; the empty product gives a single empty tuple."""
    out: list[tuple[HalfInteger, ...]] = [()]
    for j in spins:
        out = [t + (m,) for t in out for m in half_integer_range(j)]
    return out


def _leg_matrix(
    spins: Sequence[SpinLike],
    orientation: str,
    example: str,
    entry: Callable[[list[HalfInteger], list[HalfInteger]], RadicalNumber],
) -> list[list[RadicalNumber]]:
    """Spin-basis matrix of an intertwiner with len(example) legs, with
    ``entry(js, ms)`` its tensor entry at leg indices ms.

    Outgoing ('o') legs index rows, ingoing ('i') legs columns, both in leg
    order with magnetic indices decreasing; ingoing indices are negated.
    """
    n = len(example)
    if len(spins) != n or len(orientation) != n or set(orientation) - {"i", "o"}:
        raise ValueError(f"need {n} spins and an orientation like {example!r}")
    js = [_hi(j) for j in spins]
    rows_legs = [k for k, o in enumerate(orientation) if o == "o"]
    cols_legs = [k for k, o in enumerate(orientation) if o == "i"]
    row_ms = _m_tuples([js[k] for k in rows_legs])
    col_ms = _m_tuples([js[k] for k in cols_legs])
    out = []
    for rm in row_ms:
        row = []
        for cm in col_ms:
            m = [None] * n
            for k, v in zip(rows_legs, rm):
                m[k] = v
            for k, v in zip(cols_legs, cm):
                m[k] = -v
            row.append(entry(js, m))
        out.append(row)
    return out


def yutsis_matrix_3(
    spins: Sequence[SpinLike], orientation: str
) -> list[list[RadicalNumber]]:
    """Matrix of a 3-valent intertwiner vertex in the spin basis.

    ``orientation`` is a 3-letter string of 'i' (ingoing) / 'o' (outgoing)
    per leg.  Ingoing legs index columns, outgoing legs index rows, both in
    leg order with magnetic indices decreasing; the tensor entry at
    (m1, m2, m3) is the 3jm symbol with ingoing indices negated.
    """
    return _leg_matrix(spins, orientation, "iio", lambda js, m: w3jm(*js, *m))


def yutsis_matrix_4(
    spins: Sequence[SpinLike], j: SpinLike, orientation: str
) -> list[list[RadicalNumber]]:
    """Matrix of a 4-valent intertwiner (channel spin j); same conventions
    as :func:`yutsis_matrix_3`.  Each entry is the sum of :func:`w4jm`, with
    every 3jm factor computed once per matrix: neighbouring entries share them.
    """
    j = _hi(j)
    factors: dict[tuple, RadicalNumber] = {}

    def w3(*args: HalfInteger) -> RadicalNumber:
        key = tuple(a.twice for a in args)  # ints hash far faster than HalfInteger
        x = factors.get(key)
        if x is None:
            x = factors[key] = w3jm(*args)
        return x

    return _leg_matrix(spins, orientation, "iioo", lambda js, ms: _sum_4jm(w3, *js, *ms, j))


# -- closed invariants (oracle self-checks) -------------------------------


def invariant_theta(j1: SpinLike, j2: SpinLike, j3: SpinLike) -> RadicalNumber:
    """The closed two-vertex (theta) network, contracted index by index."""
    j1, j2, j3 = _hi(j1), _hi(j2), _hi(j3)
    total = RadicalNumber.zero()
    for m1 in half_integer_range(j1):
        for m2 in half_integer_range(j2):
            m3 = -(m1 + m2)
            if abs(m3.twice) > j3.twice:
                continue
            a = w3jm(j1, j2, j3, m1, m2, m3)
            if a.is_zero():
                continue
            # The metric maps m at the outgoing vertex to -m at the ingoing
            # vertex, whose tensor negates its own indices again.
            sign = _sign_pow((j1 - m1) + (j2 - m2) + (j3 - m3))
            total = total + sign * a * a
    return total


def invariant_loop(j: SpinLike) -> RadicalNumber:
    """The closed single-edge loop, contracted index by index (equals 2j+1)."""
    j = _hi(j)
    total = RadicalNumber.zero()
    for m in half_integer_range(j):
        # Two strand factors (-1)^(j-m) meet on the loop.
        total = total + _sign_pow(j - m) * _sign_pow(j - m)
    return total
