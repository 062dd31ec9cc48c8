"""Closed-form Wigner recoupling symbols with exact radical arithmetic.

This module is an independent oracle for the diagrammatic engine: it only
uses factorial sum formulas over exact rationals and square roots
(:class:`~spinnet.exact.RadicalNumber`), and shares no code with the tensor
contraction path.

Conventions: 3jm symbols follow the standard relation to Clebsch-Gordan
coefficients; the 4jm symbol couples (j1 j2) and (j3 j4) through an
intermediate spin j with a (-1)^(j-m) metric; the 6j symbol is the closed
tetrahedral contraction of four 3jm symbols.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
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


def triangle_ok(j1: SpinLike, j2: SpinLike, j3: SpinLike) -> bool:
    """Admissibility of a spin triad: triangle inequality + integer sum."""
    a, b, c = _hi(j1).twice, _hi(j2).twice, _hi(j3).twice
    if min(a, b, c) < 0:
        return False
    return (a + b + c) % 2 == 0 and abs(a - b) <= c <= a + b


@lru_cache(maxsize=None)
def _cg_twice(tj1: int, tm1: int, tj2: int, tm2: int, tj: int, tm: int) -> RadicalNumber:
    zero = RadicalNumber.zero()
    if tm != tm1 + tm2:
        return zero
    if abs(tm1) > tj1 or abs(tm2) > tj2 or abs(tm) > tj:
        return zero
    if (tj1 + tm1) % 2 or (tj2 + tm2) % 2 or (tj + tm) % 2:
        return zero
    if not triangle_ok(
        HalfInteger.from_twice(tj1), HalfInteger.from_twice(tj2), HalfInteger.from_twice(tj)
    ):
        return zero
    # All the following combinations are integers.
    jpm = (tj + tm) // 2
    jmm = (tj - tm) // 2
    t1 = (-tj + tj1 + tj2) // 2
    t2 = (tj - tj1 + tj2) // 2
    t3 = (tj + tj1 - tj2) // 2
    j1pm1 = (tj1 + tm1) // 2
    j1mm1 = (tj1 - tm1) // 2
    j2pm2 = (tj2 + tm2) // 2
    j2mm2 = (tj2 - tm2) // 2
    jsum1 = (tj + tj1 + tj2) // 2 + 1
    pref = Fraction(
        (tj + 1)
        * factorial(jpm)
        * factorial(jmm)
        * factorial(t1)
        * factorial(t2)
        * factorial(t3),
        factorial(jsum1)
        * factorial(j1pm1)
        * factorial(j1mm1)
        * factorial(j2pm2)
        * factorial(j2mm2),
    )
    # Summation index bounds keep every factorial argument nonnegative.
    a_top = (tj + tj2 + tm1) // 2  # (j + j2 + m1 - k)!
    b_base = j1mm1  # (j1 - m1 + k)!
    c_top = t2  # (j - j1 + j2 - k)!
    d_top = jpm  # (j + m - k)!
    e_shift = (tj1 - tj2 - tm) // 2  # (k + j1 - j2 - m)!
    k_lo = max(0, -e_shift)
    k_hi = min(a_top, c_top, d_top)
    total = Fraction(0)
    sign_base = (tj2 + tm2) // 2
    for k in range(k_lo, k_hi + 1):
        term = Fraction(
            factorial(a_top - k) * factorial(b_base + k),
            factorial(c_top - k) * factorial(d_top - k) * factorial(k) * factorial(k + e_shift),
        )
        total += term if (k + sign_base) % 2 == 0 else -term
    if total == 0:
        return zero
    return sqrt_rational(pref) * RadicalNumber.from_rational(total)


def cg(
    j1: SpinLike, m1: SpinLike, j2: SpinLike, m2: SpinLike, j: SpinLike, m: SpinLike
) -> RadicalNumber:
    """Clebsch-Gordan coefficient <j1 m1; j2 m2 | j m>, exact."""
    return _cg_twice(
        _hi(j1).twice, _hi(m1).twice, _hi(j2).twice, _hi(m2).twice, _hi(j).twice, _hi(m).twice
    )


def w3jm(
    j1: SpinLike, j2: SpinLike, j3: SpinLike, m1: SpinLike, m2: SpinLike, m3: SpinLike
) -> RadicalNumber:
    """Wigner 3jm symbol (j1 j2 j3; m1 m2 m3), exact."""
    j1, j2, j3 = _hi(j1), _hi(j2), _hi(j3)
    m1, m2, m3 = _hi(m1), _hi(m2), _hi(m3)
    if not triangle_ok(j1, j2, j3):
        return RadicalNumber.zero()
    if (m1 + m2 + m3).twice != 0:
        return RadicalNumber.zero()
    for jj, mm in ((j1, m1), (j2, m2), (j3, m3)):
        if (jj.twice + mm.twice) % 2 or abs(mm.twice) > jj.twice:
            return RadicalNumber.zero()
    c = cg(j1, m1, j2, m2, j3, -m3)
    if c.is_zero():
        return c
    sign = _sign_pow(j1 - j2 - m3)
    dim = Fraction(j3.twice + 1, 1)
    return sign * c * sqrt_rational(1 / dim)


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
    j = _hi(j)
    total = RadicalNumber.zero()
    for m in half_integer_range(j):
        a = w3jm(j1, j2, j, m1, m2, m)
        if a.is_zero():
            continue
        b = w3jm(j, j3, j4, -m, m3, m4)
        if b.is_zero():
            continue
        total = total + _sign_pow(j - m) * a * b
    return total


def w6j(
    j1: SpinLike, j2: SpinLike, j3: SpinLike, j4: SpinLike, j5: SpinLike, j6: SpinLike
) -> RadicalNumber:
    """Wigner 6j symbol {j1 j2 j3; j4 j5 j6}, exact.

    Computed as the closed contraction of four 3jm symbols over all
    magnetic indices with a (-1)^(ji - mi) metric on every line.
    """
    j1, j2, j3 = _hi(j1), _hi(j2), _hi(j3)
    j4, j5, j6 = _hi(j4), _hi(j5), _hi(j6)
    total = RadicalNumber.zero()
    for m1 in half_integer_range(j1):
        for m2 in half_integer_range(j2):
            m3 = -(m1 + m2)
            if abs(m3.twice) > j3.twice:
                continue
            a = w3jm(j1, j2, j3, -m1, -m2, -m3)
            if a.is_zero():
                continue
            for m4 in half_integer_range(j4):
                m5 = m4 - m3
                if abs(m5.twice) > j5.twice:
                    continue
                m6 = m5 - m1
                if abs(m6.twice) > j6.twice:
                    continue
                b = w3jm(j1, j5, j6, m1, -m5, m6)
                if b.is_zero():
                    continue
                c = w3jm(j4, j2, j6, m4, m2, -m6)
                if c.is_zero():
                    continue
                e = w3jm(j3, j4, j5, m3, -m4, m5)
                if e.is_zero():
                    continue
                sign = _sign_pow(
                    (j1 - m1) + (j2 - m2) + (j3 - m3) + (j4 - m4) + (j5 - m5) + (j6 - m6)
                )
                total = total + sign * a * b * c * e
    return total


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
    as :func:`yutsis_matrix_3`."""
    return _leg_matrix(spins, orientation, "iioo", lambda js, m: w4jm(*js, *m, j))


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
