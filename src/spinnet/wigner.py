"""Closed-form Wigner recoupling symbols with exact radical arithmetic.

This module is an independent oracle for the diagrammatic engine: it only
uses factorial sum formulas over exact rationals and square roots
(:class:`~spinnet.exact.RadicalNumber`), and shares no code with the tensor
contraction path.

Conventions: the 3jm and 6j symbols are Racah's single sums (Racah, Phys.
Rev. 62, 438, 1942; Edmonds, *Angular Momentum in Quantum Mechanics*, 1957),
each one integer factorial sum over a common denominator times one square
root of a rational; the 4jm symbol couples (j1 j2) and (j3 j4) through an
intermediate spin j with a (-1)^(j-m) metric.

Selection rule: a 3jm symbol vanishes unless m1 + m2 + m3 = 0 (Edmonds,
section 3.7).  So the 4jm symbol's sum over the intermediate m has a single
term, at m = m3 + m4, and a vertex matrix computes only the entries whose
magnetic indices sum to 0; all others are the one shared zero.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd, prod
from typing import Callable, Sequence

from .exact import (
    HalfInteger,
    RadicalNumber,
    factorial,
    sqrt_rational,
    squarefree_decompose,
)

__all__ = [
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

_ZERO = RadicalNumber.zero()  # immutable, so every zero entry can share it


def _hi(x: SpinLike) -> HalfInteger:
    return x if isinstance(x, HalfInteger) else HalfInteger(x)


def _sign(n: int) -> int:
    """(-1)**n."""
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


def _w3jm(a: int, b: int, c: int, x: int, y: int, z: int) -> RadicalNumber:
    """:func:`w3jm` at twice-spins a, b, c and twice-ms x, y, z: zero
    unless x + y + z = 0, else one square root times one Racah sum."""
    if x + y + z or not _admissible(a, b, c):
        return _ZERO
    if any((t + u) % 2 or abs(u) > t for t, u in ((a, x), (b, y), (c, z))):
        return _ZERO
    total = _racah_sum(
        (0, (b - c - x) // 2, (a - c + y) // 2),
        ((a + b - c) // 2, (a - x) // 2, (b + y) // 2),
        lambda t: 1,
    )
    num, den = _delta2(a, b, c)
    for t, u in ((a, x), (b, y), (c, z)):
        num *= factorial((t + u) // 2) * factorial((t - u) // 2)
    g = gcd(num, den)
    p, q = num // g, den // g
    r, s = squarefree_decompose(p * q)  # sqrt(p/q) = (r/q) sqrt(s)
    return RadicalNumber._of({s: Fraction(_sign((a - b - z) // 2) * r, q) * total})


def w3jm(
    j1: SpinLike, j2: SpinLike, j3: SpinLike, m1: SpinLike, m2: SpinLike, m3: SpinLike
) -> RadicalNumber:
    """Wigner 3jm symbol (j1 j2 j3; m1 m2 m3), exact, by Racah's single sum:
    (-1)^(j1-j2-m3) times the square root of the triangle coefficient of
    (j1 j2 j3) and of prod (ji+mi)! (ji-mi)!, times
    sum_k (-1)^k / (k! (j3-j2+m1+k)! (j3-j1-m2+k)! (j1+j2-j3-k)! (j1-m1-k)! (j2+m2-k)!).
    """
    return _w3jm(*(_hi(v).twice for v in (j1, j2, j3, m1, m2, m3)))


def _w3jm_channel(c: int, a3: int, a4: int, x3: int, x4: int) -> RadicalNumber:
    """(-1)^(j-m) (j j3 j4; -m m3 m4) at m = m3 + m4, in twice-ints."""
    x = x3 + x4
    w = _w3jm(c, a3, a4, -x, x3, x4)
    return -w if (c - x) // 2 % 2 else w


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

    The sum over m of (-1)^(j-m) (j1 j2 j; m1 m2 m)(j j3 j4; -m m3 m4).  A
    3jm symbol vanishes unless its ms sum to 0, so only m = m3 + m4 =
    -(m1 + m2) can contribute, and the symbol is that single term (zero
    when m1 + m2 + m3 + m4 != 0 or |m| > j).
    """
    a1, a2, a3, a4, c, x1, x2, x3, x4 = (_hi(v).twice for v in (j1, j2, j3, j4, j, m1, m2, m3, m4))
    return _w3jm(a1, a2, c, x1, x2, x3 + x4) * _w3jm_channel(c, a3, a4, x3, x4)


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


def _leg_matrix(
    spins: Sequence[SpinLike],
    orientation: str,
    example: str,
    entry: Callable[[list[int], list[int]], RadicalNumber],
) -> list[list[RadicalNumber]]:
    """Spin-basis matrix of an intertwiner with len(example) legs, with
    ``entry(twice_js, twice_ms)`` its tensor entry at leg indices ms.

    Outgoing ('o') legs index rows, ingoing ('i') legs columns, both in leg
    order with magnetic indices decreasing; ingoing indices are negated.
    Only entries whose ms sum to 0 are computed: the others are zero.
    """
    n = len(example)
    if len(spins) != n or len(orientation) != n or set(orientation) - {"i", "o"}:
        raise ValueError(f"need {n} spins and an orientation like {example!r}")
    tw = [_hi(j).twice for j in spins]
    outs = [k for k, o in enumerate(orientation) if o == "o"]
    ins = [k for k, o in enumerate(orientation) if o == "i"]
    place = [(outs + ins).index(k) for k in range(n)]  # leg k's slot in (row ms, column ms)
    # A column holds the negated ms, -m = -j, ..., j, and their sum.
    cols = [(sum(cm), cm) for cm in product(*(range(-tw[k], tw[k] + 1, 2) for k in ins))]
    out = []
    for rm in product(*(range(tw[k], -tw[k] - 1, -2) for k in outs)):
        need = -sum(rm)
        out.append([
            entry(tw, [(rm + cm)[p] for p in place]) if s == need else _ZERO for s, cm in cols
        ])
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
    return _leg_matrix(spins, orientation, "iio", lambda tw, x: _w3jm(*tw, *x))


def yutsis_matrix_4(
    spins: Sequence[SpinLike], j: SpinLike, orientation: str
) -> list[list[RadicalNumber]]:
    """Matrix of a 4-valent intertwiner (channel spin j); same conventions
    as :func:`yutsis_matrix_3`.  Each entry is the single term of
    :func:`w4jm`, with each (m1, m2) and each (m3, m4) factor computed once
    per matrix: neighbouring entries share them.
    """
    c = _hi(j).twice
    left: dict[tuple[int, int], RadicalNumber] = {}
    right: dict[tuple[int, int], RadicalNumber] = {}

    def entry(tw: list[int], x: list[int]) -> RadicalNumber:
        a1, a2, a3, a4 = tw
        x1, x2, x3, x4 = x
        p = left.get((x1, x2))
        if p is None:
            p = left[x1, x2] = _w3jm(a1, a2, c, x1, x2, x3 + x4)
        q = right.get((x3, x4))
        if q is None:
            q = right[x3, x4] = _w3jm_channel(c, a3, a4, x3, x4)
        return p * q

    return _leg_matrix(spins, orientation, "iioo", entry)


# -- closed invariants (oracle self-checks) -------------------------------


def invariant_theta(j1: SpinLike, j2: SpinLike, j3: SpinLike) -> RadicalNumber:
    """The closed two-vertex (theta) network, contracted index by index."""
    a, b, c = (_hi(j).twice for j in (j1, j2, j3))
    total = _ZERO
    for x in range(a, -a - 1, -2):
        for y in range(b, -b - 1, -2):
            z = -x - y
            w = _w3jm(a, b, c, x, y, z)
            # The metric maps m at the outgoing vertex to -m at the ingoing
            # vertex, whose tensor negates its own indices again.
            if not w.is_zero():
                total = total + _sign((a - x + b - y + c - z) // 2) * w * w
    return total


def invariant_loop(j: SpinLike) -> RadicalNumber:
    """The closed single-edge loop, contracted index by index (equals 2j+1)."""
    t = _hi(j).twice
    total = _ZERO
    for x in range(t, -t - 1, -2):
        # Two strand factors (-1)^(j-m) meet on the loop.
        total = total + _sign((t - x) // 2) * _sign((t - x) // 2)
    return total
