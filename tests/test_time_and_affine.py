from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridsem.affine import LinExpr, parse_constraint, parse_expr
from hybridsem.errors import DurationBelowZeta, NegativeTime
from hybridsem.time_core import (
    INF,
    NEG_INF,
    TimeInterval,
    interval_closure,
    interval_intersect,
    interval_make,
    is_finite,
    tmax,
    tmin,
)

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=8)


class TestExtendedOrder:
    def test_inf_dominates(self):
        assert INF > Q(10**9)
        assert NEG_INF < Q(-(10**9))
        assert tmin(INF, Q(3)) == 3
        assert tmax(NEG_INF, Q(3)) == 3

    def test_inf_arithmetic_keeps_sign(self):
        assert INF + Q(5) is INF
        assert Q(5) - INF == NEG_INF

    @settings(derandomize=True)
    @given(rationals)
    def test_total_order_against_rationals(self, q):
        assert NEG_INF < q < INF
        assert not (INF < q) and not (q < NEG_INF)


class TestIntervals:
    def test_left_closed_right_open(self):
        i = interval_make(0, 2, Q(1, 1000))
        assert i.contains(0) and i.contains(Q(3, 2)) and not i.contains(2)
        assert interval_closure(i).contains(2)

    def test_zeta_floor(self):
        with pytest.raises(DurationBelowZeta):
            interval_make(0, Q(1, 2000), Q(1, 1000))
        with pytest.raises(NegativeTime):
            interval_make(-1, 2, Q(1, 1000))

    def test_intersection_cases(self):
        a = TimeInterval(Q(0), Q(3), False)
        b = TimeInterval(Q(1), Q(5), True)
        w = interval_intersect(a, b)
        assert (w.lo, w.hi, w.closed_hi) == (1, 3, False)
        # touching at an open end is empty
        assert interval_intersect(a, TimeInterval(Q(3), Q(4), False)) is None
        # touching at a closed end is the degenerate point
        c = TimeInterval(Q(0), Q(3), True)
        pt = interval_intersect(c, TimeInterval(Q(3), Q(4), True))
        assert pt.lo == pt.hi == 3 and pt.closed_hi

    @settings(derandomize=True)
    @given(
        st.tuples(rationals, rationals).map(sorted),
        st.tuples(rationals, rationals).map(sorted),
    )
    def test_intersection_is_exact(self, ab, cd):
        (a, b), (c, d) = ab, cd
        if a == b or c == d:
            return
        i = TimeInterval(Q(a), Q(b), True)
        j = TimeInterval(Q(c), Q(d), True)
        w = interval_intersect(i, j)
        for t in (a, b, c, d, (a + d) / 2):
            inside = i.contains(Q(t)) and j.contains(Q(t))
            assert inside == (w is not None and w.contains(Q(t)))

    def test_intersection_matches_contains_reference(self):
        """interval_intersect against the intersection built from
        tmax, tmin and contains, on every pair of intervals with ends in
        {0, 1, 2, INF}, open and closed right ends and points."""

        def by_contains(i, j):
            lo, hi = tmax(i.lo, j.lo), tmin(i.hi, j.hi)
            if not is_finite(hi):
                return TimeInterval(lo, INF, False)
            if lo > hi:
                return None
            closed = i.contains(hi) and j.contains(hi)
            if lo == hi and not closed:
                return None
            return TimeInterval(lo, hi, closed)

        ends = (Q(0), Q(1), Q(2), INF)
        intervals = [
            TimeInterval(lo, hi, closed)
            for lo in ends[:3]
            for hi in ends
            for closed in ((False,) if hi is INF else (False, True))
            if lo < hi or (lo == hi and closed)
        ]
        assert TimeInterval(Q(1), Q(1), True) in intervals
        probes = [Q(k, 2) for k in range(-1, 7)] + [Q(10**6)]
        for i in intervals:
            for j in intervals:
                w = interval_intersect(i, j)
                assert w == by_contains(i, j), (i, j)
                for t in probes:
                    inside = i.contains(t) and j.contains(t)
                    assert inside == (w is not None and w.contains(t)), (i, j, t)

    def test_subset_of_respects_closure(self):
        open_ = TimeInterval(Q(0), Q(2), False)
        closed = TimeInterval(Q(0), Q(2), True)
        assert open_.subset_of(closed)
        assert not closed.subset_of(open_)


class TestAffine:
    def test_parse_roundtrip(self):
        e = parse_expr("2*x - 3/2*y + 1")
        assert e.eval({"x": Q(1), "y": Q(2)}) == 2 - 3 + 1

    def test_leading_sign(self):
        assert parse_expr("-x + 4").eval({"x": Q(1)}) == 3

    def test_constraint_ops(self):
        c = parse_constraint("x - y <= 1")
        assert c.holds({"x": Q(2), "y": Q(1)})
        assert not c.holds({"x": Q(3), "y": Q(1)})

    @settings(derandomize=True)
    @given(rationals, rationals, rationals)
    def test_linear_laws(self, a, b, t):
        e1 = LinExpr.make({"t": a}, b)
        e2 = LinExpr.make({"t": -a}, -b)
        s = e1.plus(e2)
        assert s.eval({"t": Q(t)}) == 0
        assert e1.scaled(2).eval({"t": Q(t)}) == 2 * e1.eval({"t": Q(t)})

    def test_subst(self):
        e = parse_expr("x + 2*y")
        f = e.subst({"y": parse_expr("3*x")})
        assert f.eval({"x": Q(1)}) == 7
