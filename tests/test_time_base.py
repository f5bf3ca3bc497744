"""The integer time base of time_core against a Fraction reference:
rank_range by ceil/floor of the window's ends over the step, rank_of by
whether t/step is an integer, and ticks by t*D."""

import math
from fractions import Fraction as Q

from hypothesis import given, settings
from hypothesis import strategies as st

from hybridsem.time_core import INF, TimeInterval, rank_of, rank_range, ticks

KINDS = ("open", "closed", "point", "empty", "unbounded", "unbounded marked closed")
ints = st.integers(1, 97)
times = st.builds(Q, st.integers(-300, 300), ints)


@st.composite
def windows(draw):
    lo, kind = draw(times), draw(st.sampled_from(KINDS))
    if kind.startswith("unbounded"):
        return TimeInterval(lo, INF, kind.endswith("closed"))
    if kind in ("point", "empty"):
        return TimeInterval(lo, lo, kind == "point")
    return TimeInterval(lo, lo + draw(st.builds(Q, ints, ints)), kind == "closed")


def _ref_rank_range(w, step):
    first = math.ceil(w.lo / step)
    if w.hi is INF:
        return first, INF
    x = w.hi / step
    return first, math.floor(x) if w.closed_hi else math.ceil(x) - 1


@settings(derandomize=True, deadline=None, max_examples=400)
@given(windows(), ints, ints)
def test_rank_range_matches_ceil_and_floor(w, p, q):
    step = Q(p, q)
    first, last = rank_range(w, p, q)
    assert (first, last) == _ref_rank_range(w, step)
    # the least and greatest ranks in w: their neighbours outside are not
    assert not w.contains((first - 1) * step)
    if last is not INF:
        assert not w.contains((last + 1) * step)
        assert all(w.contains(n * step) for n in range(first, last + 1))


@settings(derandomize=True, deadline=None, max_examples=400)
@given(times, ints, ints)
def test_rank_of_is_the_exact_rank(t, p, q):
    x = t / Q(p, q)
    assert rank_of(t, p, q) == (x.numerator if x.denominator == 1 else None)
    assert rank_of(t.numerator * Q(p, q), p, q) == t.numerator


def test_rank_of_unbounded_is_none():
    assert rank_of(INF, 1, 1) is None
    assert rank_of(INF, 3, 97) is None


@settings(derandomize=True, deadline=None, max_examples=400)
@given(times, ints)
def test_ticks_scales_by_a_common_denominator(t, k):
    D = math.lcm(t.denominator, k)
    assert ticks(t, D) == t * D
    assert isinstance(ticks(t, D), int)
