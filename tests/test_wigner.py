"""Closed-form oracle: CG coefficients, 3jm/4jm/6j symbols, their algebraic
properties, and the spin-basis vertex matrices."""

from fractions import Fraction
from itertools import permutations, product

from spinnet.exact import HalfInteger, RadicalNumber, factorial, sqrt_rational, half_integer_range
from spinnet.wigner import (
    cg,
    invariant_loop,
    invariant_theta,
    triangle_ok,
    w3jm,
    w4jm,
    w6j,
    yutsis_matrix_3,
    yutsis_matrix_4,
)

H = Fraction(1, 2)
SPINS_UP_TO_3_HALVES = [Fraction(0), H, Fraction(1), Fraction(3, 2)]
SPINS_UP_TO_2 = [HalfInteger.from_twice(t) for t in range(5)]


def valid_triads(spins):
    for j1 in spins:
        for j2 in spins:
            for j3 in spins:
                if triangle_ok(HalfInteger(j1), HalfInteger(j2), HalfInteger(j3)):
                    yield (j1, j2, j3)


def sign_power(twice_exponent):
    """(-1)^(k/2) for even twice_exponent k (raises if k is odd)."""
    assert twice_exponent % 2 == 0
    return RadicalNumber.one() if (twice_exponent // 2) % 2 == 0 else -RadicalNumber.one()


def _sign(x: HalfInteger) -> int:
    """(-1)**x for an integer-valued HalfInteger x."""
    assert x.twice % 2 == 0
    return -1 if (x.twice // 2) % 2 else 1


# -- reference closed forms -------------------------------------------------
#
# The oracle's earlier forms, kept as independent references for its Racah
# single sums: the 6j symbol as the closed tetrahedral contraction of four
# 3jm symbols, and the Clebsch-Gordan coefficient as its own factorial sum.


def _ref_w6j(j1, j2, j3, j4, j5, j6) -> RadicalNumber:
    """The closed contraction of four 3jm symbols over all magnetic indices,
    with a (-1)^(j - m) metric on every line."""
    j1, j2, j3, j4, j5, j6 = (HalfInteger(j) for j in (j1, j2, j3, j4, j5, j6))
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
                sign = _sign((j1 - m1) + (j2 - m2) + (j3 - m3) + (j4 - m4) + (j5 - m5) + (j6 - m6))
                total = total + sign * a * b * c * e
    return total


def _ref_cg(j1, m1, j2, m2, j, m) -> RadicalNumber:
    """<j1 m1; j2 m2 | j m> as a prefactor square root times a factorial sum
    over k, with a Fraction per term."""
    tj1, tm1, tj2, tm2, tj, tm = (HalfInteger(x).twice for x in (j1, m1, j2, m2, j, m))
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


def admissible_6j(spins):
    """Every sextuple whose four triads are admissible."""
    return [
        js
        for js in product(spins, repeat=6)
        if all(
            triangle_ok(*t)
            for t in ((js[0], js[1], js[2]), (js[0], js[4], js[5]),
                      (js[3], js[1], js[5]), (js[2], js[3], js[4]))
        )
    ]


def admissible_4jm(legs, channels):
    """Every (j1, j2, j3, j4, j) with admissible triads (j1 j2 j), (j j3 j4)."""
    return [
        (*js, j)
        for js in product(legs, repeat=4)
        for j in channels
        if triangle_ok(js[0], js[1], j) and triangle_ok(j, js[2], js[3])
    ]


LEGS_UP_TO_3_HALVES = [HalfInteger.from_twice(t) for t in (1, 2, 3)]
CHANNELS_UP_TO_3 = [HalfInteger.from_twice(t) for t in range(7)]


class TestClebschGordan:
    def test_known_values(self):
        # <1/2 1/2; 1/2 -1/2 | 0 0> = 1/sqrt(2), with the triplet partner +.
        assert cg(H, H, H, -H, 0, 0) == sqrt_rational(H)
        assert cg(H, -H, H, H, 0, 0) == -sqrt_rational(H)
        assert cg(H, H, H, -H, 1, 0) == sqrt_rational(H)
        assert cg(H, H, H, H, 1, 1) == RadicalNumber.one()
        assert cg(1, 1, 1, -1, 0, 0) == sqrt_rational(Fraction(1, 3))
        assert cg(1, 0, 1, 0, 0, 0) == -sqrt_rational(Fraction(1, 3))

    def test_selection_rules(self):
        assert cg(H, H, H, H, 0, 1) == RadicalNumber.zero()  # m mismatch
        assert cg(H, H, H, H, 2, 1) == RadicalNumber.zero()  # triangle
        assert cg(1, 1, 1, 1, 1, 2) == RadicalNumber.zero()

    def test_unitarity(self):
        for j1, j2 in [(H, H), (1, H), (1, 1), (Fraction(3, 2), 1)]:
            h1, h2 = HalfInteger(j1), HalfInteger(j2)
            for m1 in half_integer_range(h1):
                for m2 in half_integer_range(h2):
                    total = RadicalNumber.zero()
                    tlo, thi = abs(h1.twice - h2.twice), h1.twice + h2.twice
                    for tj in range(tlo, thi + 1, 2):
                        j = HalfInteger.from_twice(tj)
                        m = m1 + m2
                        if abs(m.twice) > tj:
                            continue
                        c = cg(h1, m1, h2, m2, j, m)
                        total = total + c * c
                    assert total == RadicalNumber.one()

    def test_matches_factorial_sum_reference(self):
        # Every (j, m) tuple with spins <= 2, inadmissible ones included.
        jm = [(j, m) for j in SPINS_UP_TO_2 for m in half_integer_range(j)]
        assert len(jm) ** 3 == 3375
        for (j1, m1), (j2, m2), (j, m) in product(jm, repeat=3):
            assert cg(j1, m1, j2, m2, j, m) == _ref_cg(j1, m1, j2, m2, j, m), (j1, m1, j2, m2, j, m)


class TestW3jm:
    def test_zero_outside_domain(self):
        assert w3jm(H, H, H, H, H, -H) == RadicalNumber.zero()  # bad triangle
        assert w3jm(H, H, 1, H, H, 0) == RadicalNumber.zero()  # m sum != 0
        assert w3jm(1, 1, 1, 2, -1, -1) == RadicalNumber.zero()  # |m| > j

    def test_orthogonality_exhaustive(self):
        # Sum over m1, m2 of (2 j3 + 1) w(j3, m3) w(j3', m3') = delta delta,
        # exhaustively for all spins <= 3/2.
        for j1, j2, j3 in valid_triads(SPINS_UP_TO_3_HALVES):
            h1, h2, h3 = HalfInteger(j1), HalfInteger(j2), HalfInteger(j3)
            for j3p in SPINS_UP_TO_3_HALVES:
                h3p = HalfInteger(j3p)
                if not triangle_ok(h1, h2, h3p):
                    continue
                for m3 in half_integer_range(h3):
                    for m3p in half_integer_range(h3p):
                        total = RadicalNumber.zero()
                        for m1 in half_integer_range(h1):
                            for m2 in half_integer_range(h2):
                                a = w3jm(h1, h2, h3, m1, m2, m3)
                                b = w3jm(h1, h2, h3p, m1, m2, m3p)
                                total = total + a * b
                        mult = RadicalNumber({1: h3.twice + 1})
                        want = (
                            RadicalNumber.one()
                            if (h3.twice == h3p.twice and m3.twice == m3p.twice)
                            else RadicalNumber.zero()
                        )
                        assert mult * total == want, (j1, j2, j3, j3p, m3, m3p)

    def test_permutation_symmetries_exhaustive(self):
        for j1, j2, j3 in valid_triads(SPINS_UP_TO_3_HALVES):
            h = [HalfInteger(j1), HalfInteger(j2), HalfInteger(j3)]
            jtot = h[0].twice + h[1].twice + h[2].twice
            for m1 in half_integer_range(h[0]):
                for m2 in half_integer_range(h[1]):
                    m3 = -(m1 + m2)
                    if abs(m3.twice) > h[2].twice:
                        continue
                    ms = [m1, m2, m3]
                    base = w3jm(*h, *ms)
                    for perm in permutations(range(3)):
                        val = w3jm(*[h[p] for p in perm], *[ms[p] for p in perm])
                        even = perm in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]
                        expect = base if even else sign_power(jtot) * base
                        assert val == expect, (j1, j2, j3, ms, perm)
                    # m -> -m flip.
                    flipped = w3jm(*h, -m1, -m2, -m3)
                    assert flipped == sign_power(jtot) * base


class TestW4jm:
    def test_reduces_to_3jm_contraction(self):
        # Spot values against an independent m-sum at the definition level.
        val = w4jm(1, 1, H, H, 1, 0, -H, -H, 1)
        assert val == RadicalNumber({2: Fraction(1, 6)})  # sqrt(2)/6
        assert w4jm(H, H, H, H, H, H, -H, -H, 1) == RadicalNumber({1: Fraction(1, 3)})
        assert w4jm(H, H, H, H, H, -H, H, -H, 0) == RadicalNumber({1: Fraction(1, 2)})

    def test_zero_when_channel_triangle_fails(self):
        assert w4jm(H, H, H, H, H, H, -H, -H, 2) == RadicalNumber.zero()


SEXTUPLES = [
    (1, 1, 1, 1, 1, 1),
    (2, 1, 1, 1, 1, 1),
    (2, 2, 2, 1, 1, 1),
    (H, H, 1, H, H, 1),
    (1, H, H, 1, H, H),
    (Fraction(3, 2), 1, H, H, 1, Fraction(3, 2)),
]


class TestW6j:
    def test_known_values(self):
        assert w6j(1, 1, 1, 1, 1, 1) == RadicalNumber({1: Fraction(1, 6)})
        assert w6j(2, 1, 1, 1, 1, 1) == RadicalNumber({1: Fraction(1, 6)})
        assert w6j(2, 2, 2, 1, 1, 1) == RadicalNumber({21: Fraction(1, 30)})
        # {a b 0; c d f} with a=b, c=d equals (-1)^(a+c+f)/sqrt((2a+1)(2c+1)).
        assert w6j(0, 1, 1, 1, 1, 1) == -RadicalNumber({1: Fraction(1, 3)})

    def test_matches_contraction_reference(self):
        symbols = admissible_6j(SPINS_UP_TO_2)
        assert len(symbols) == 570
        for js in symbols:
            assert w6j(*js) == _ref_w6j(*js), js

    def test_zero_when_a_triad_fails(self):
        assert w6j(1, 1, 1, 1, 1, 3) == RadicalNumber.zero()
        assert w6j(1, 1, 1, 1, 1, H) == RadicalNumber.zero()

    def test_large_spin_values(self):
        S = Fraction(7, 2)
        for js, want in [
            ((3, 3, 3, 3, 3, 3), Fraction(-1, 14)),
            ((S, S, 3, S, S, 3), Fraction(31, 616)),
            ((4, 4, 4, 4, 4, 4), Fraction(-467, 18018)),
        ]:
            assert w6j(*js) == RadicalNumber.from_rational(want), js
            assert _ref_w6j(*js) == RadicalNumber.from_rational(want), js

    def test_tetrahedral_symmetry(self):
        # Invariance under any permutation of the three columns, and under
        # swapping upper and lower entries of any two columns.
        for js in SEXTUPLES:
            j1, j2, j3, j4, j5, j6 = js
            cols = [(j1, j4), (j2, j5), (j3, j6)]
            base = w6j(*js)
            assert not base.is_zero()
            for perm in permutations(range(3)):
                p = [cols[k] for k in perm]
                val = w6j(p[0][0], p[1][0], p[2][0], p[0][1], p[1][1], p[2][1])
                assert val == base, (js, perm)
            for a in range(3):
                for b in range(3):
                    if a == b:
                        continue
                    p = [list(c) for c in cols]
                    p[a].reverse()
                    p[b].reverse()
                    val = w6j(p[0][0], p[1][0], p[2][0], p[0][1], p[1][1], p[2][1])
                    assert val == base, (js, a, b)


class TestInvariants:
    def test_loop_counts_dimension(self):
        for j, dim in [(H, 2), (1, 3), (Fraction(3, 2), 4), (2, 5)]:
            assert invariant_loop(j) == RadicalNumber({1: dim})

    def test_theta_sign(self):
        for j1, j2, j3 in [(H, H, 1), (1, 1, 1), (1, H, H), (Fraction(3, 2), 1, H)]:
            jtot = HalfInteger(j1).twice + HalfInteger(j2).twice + HalfInteger(j3).twice
            assert invariant_theta(j1, j2, j3) == sign_power(jtot)


class TestYutsisMatrices:
    def test_3jm_matrix_entries(self):
        m = yutsis_matrix_3((H, H, 1), "iio")
        # Rows: m3 = 1, 0, -1; columns: (m1, m2) with m decreasing, leg 1
        # more significant.  Ingoing arguments are negated.
        assert m[0][0] == w3jm(H, H, 1, -H, -H, 1)
        assert m[1][1] == w3jm(H, H, 1, -H, H, 0)
        assert m[2][3] == w3jm(H, H, 1, H, H, -1)

    def test_4jm_matrix_entries_equal_w4jm(self):
        # Rows are (m3, m4), columns (m1, m2), ingoing indices negated.
        vertices = admissible_4jm(LEGS_UP_TO_3_HALVES, CHANNELS_UP_TO_3)
        assert len(vertices) == 87
        for j1, j2, j3, j4, j in vertices:
            m = yutsis_matrix_4((j1, j2, j3, j4), j, "iioo")
            want = [
                [w4jm(j1, j2, j3, j4, -m1, -m2, m3, m4, j)
                 for m1 in half_integer_range(j1) for m2 in half_integer_range(j2)]
                for m3 in half_integer_range(j3) for m4 in half_integer_range(j4)
            ]
            assert m == want, (j1, j2, j3, j4, j)

    def test_4jm_matrix_shape(self):
        m = yutsis_matrix_4((H, H, H, H), 1, "iioo")
        assert len(m) == 4 and len(m[0]) == 4
        m0 = yutsis_matrix_4((H, H, H, H), 0, "iioo")
        assert m0[1][1] == -RadicalNumber({1: Fraction(1, 2)})
