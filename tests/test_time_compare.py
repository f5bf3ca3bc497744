"""Times compared as integers against the Fraction comparisons they replaced.

`time_core.earlier` decides a < b for finite times by cross-multiplying
numerators and denominators.  The references below are the earlier
interval_intersect, TimeInterval.contains and subset_of, tmin,
config_slice, config_concat and splice, kept verbatim apart from their
names, each comparing times with Fraction's own operators.  On seeded
intervals (open, closed, point and unbounded, denominators up to 97,
times given as ints and as Fractions) and on configurations built from
them, the integer forms must give equal results with equal reprs, and
raise where the references raise."""

from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridsem.errors import DurationBelowZeta, EmptyIntersection, NonConsecutive
from hybridsem.flow_config import (
    EPSILON,
    Configuration,
    PiecewiseConfiguration,
    cfg_b,
    cfg_e,
    config_concat,
    config_slice,
    is_empty,
    make_config,
    pieces,
)
from hybridsem.simulation import splice
from hybridsem.time_core import INF, NEG_INF, TimeInterval, earlier, interval_intersect, is_finite, tmin

# --- the references: Fraction comparisons ------------------------------------


def ref_contains(i, t) -> bool:
    if not is_finite(t):
        return False
    if t < i.lo:
        return False
    if t < i.hi:
        return True
    return i.closed_hi and t == i.hi


def ref_subset_of(i, other) -> bool:
    if i.lo < other.lo:
        return False
    if i.hi < other.hi:
        return True
    if i.hi == other.hi:
        return other.closed_hi or not i.closed_hi
    return False


def ref_tmin(*ts):
    out = ts[0]
    for t in ts[1:]:
        if t < out:
            out = t
    return out


def ref_intersect(i, j):
    lo = j.lo if i.lo < j.lo else i.lo
    ihi, jhi = i.hi, j.hi
    if ihi is INF:
        if jhi is INF:
            return TimeInterval(lo, INF, False)
        hi, closed = jhi, j.closed_hi
    elif jhi is INF or ihi < jhi:
        hi, closed = ihi, i.closed_hi
    elif jhi < ihi:
        hi, closed = jhi, j.closed_hi
    else:
        hi, closed = ihi, i.closed_hi and j.closed_hi
    if (hi < lo) if closed else not (lo < hi):
        return None
    return TimeInterval(lo, hi, closed)


def ref_interval(c) -> TimeInterval:
    if isinstance(c, PiecewiseConfiguration):
        first, last = c.pieces[0], c.pieces[-1]
        return TimeInterval(first.b, last.e, last.interval.closed_hi)
    return c.interval


def ref_config_concat(c, d):
    if c is EPSILON:
        return d
    if d is EPSILON:
        return c
    if cfg_e(c) != cfg_b(d):
        raise NonConsecutive("not consecutive")
    left = list(pieces(c))
    last = left[-1]
    if last.interval.closed_hi:
        if last.interval.d == 0:
            left.pop()
        else:
            left[-1] = Configuration(last.flow, TimeInterval(last.b, last.e, False))
    return PiecewiseConfiguration(tuple(left) + pieces(d))


def ref_config_slice(c, t1, t2, closed=False, zeta=None):
    if c is EPSILON:
        return EPSILON
    t1 = Q(t1)
    window = TimeInterval(t1, Q(t2) if is_finite(t2) else INF, closed)
    inter = ref_intersect(ref_interval(c), window)
    if inter is None:
        raise EmptyIntersection("empty")
    if zeta is not None and is_finite(inter.hi) and inter.d < zeta:
        raise DurationBelowZeta("short")
    kept = []
    for piece in pieces(c):
        sub = ref_intersect(piece.interval, inter)
        if sub is None or (is_finite(sub.hi) and sub.d == 0 and not sub.closed_hi):
            continue
        if sub.d == 0:
            if not (sub.closed_hi and sub.hi == inter.hi):
                continue
        kept.append(Configuration(piece.flow, sub))
    if not kept:
        raise EmptyIntersection("empty")
    if len(kept) == 1:
        return kept[0]
    return PiecewiseConfiguration(tuple(kept))


def ref_splice(c, c_next, m1, m2):
    if m2 <= m1:
        return None
    cat = ref_config_concat(c, c_next) if not is_empty(c_next) else c
    closed = ref_interval(cat).closed_hi and ref_interval(cat).hi == m2
    try:
        return ref_config_slice(cat, m1, m2, closed=closed)
    except EmptyIntersection:
        return None


# --- seeded times, intervals and configurations -------------------------------

# a few small denominators make shared ends common; 89 and 97 mix primes
DENS = (1, 2, 3, 4, 6, 89, 97)


@st.composite
def times(draw, top=8):
    """A finite time in [0, top], as an int or a Fraction."""
    if draw(st.booleans()):
        return draw(st.integers(0, top))
    d = draw(st.one_of(st.sampled_from(DENS), st.integers(1, 97)))
    return Q(draw(st.integers(0, top * d)), d)


@st.composite
def intervals(draw):
    lo = draw(times())
    shape = draw(st.sampled_from(("open", "closed", "point", "empty", "unbounded")))
    if shape == "unbounded":
        return TimeInterval(lo, INF, False)
    if shape in ("point", "empty"):
        return TimeInterval(lo, lo, shape == "point")
    return TimeInterval(lo, lo + draw(times(4)) + Q(1, draw(st.sampled_from(DENS))),
                        shape == "closed")


def _config(draw, lo, last):
    """A plain configuration from lo; the last of a chain may be closed,
    a point or unbounded."""
    shape = draw(st.sampled_from(("open", "closed", "point", "unbounded") if last else ("open",)))
    if shape == "unbounded":
        hi = INF
    elif shape == "point":
        hi = lo
    else:
        hi = lo + Q(draw(st.integers(1, 6)), draw(st.sampled_from(DENS)))
    u0, rate = draw(times(3)), Q(draw(st.integers(-3, 3)), draw(st.sampled_from(DENS)))
    return make_config(draw(st.sampled_from("mn")), lo, hi, {"u": u0}, {"u": rate},
                       closed_hi=shape in ("closed", "point"))


@st.composite
def chains(draw):
    """1 to 3 consecutive plain configurations."""
    n = draw(st.integers(1, 3))
    out = [_config(draw, Q(draw(times(4))), n == 1)]
    for k in range(1, n):
        out.append(_config(draw, out[-1].e, k == n - 1))
    return out


def _same(got, want):
    assert got == want and repr(got) == repr(want)


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (EmptyIntersection, DurationBelowZeta, NonConsecutive) as exc:
        return type(exc)


# --- the tests -------------------------------------------------------------


@settings(derandomize=True, deadline=None, max_examples=400)
@given(times(), times())
def test_earlier_is_fraction_less_than(a, b):
    assert earlier(a, b) == (a < b)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(intervals(), intervals())
def test_interval_intersect_matches_reference(i, j):
    _same(interval_intersect(i, j), ref_intersect(i, j))


@settings(derandomize=True, deadline=None, max_examples=400)
@given(intervals(), intervals(), st.one_of(times(), st.sampled_from((INF, NEG_INF))))
def test_contains_and_subset_of_match_reference(i, j, t):
    assert i.contains(t) == ref_contains(i, t)
    assert i.contains(i.lo) == ref_contains(i, i.lo)
    if is_finite(i.hi):
        assert i.contains(i.hi) == ref_contains(i, i.hi)
    assert i.subset_of(j) == ref_subset_of(i, j)
    assert i.subset_of(i) == ref_subset_of(i, i)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(st.lists(st.one_of(times(), st.just(INF)), min_size=1, max_size=4))
def test_tmin_matches_reference(ts):
    got, want = tmin(*ts), ref_tmin(*ts)
    assert got == want and (got is INF) == (want is INF)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(chains(), times(), st.one_of(times(), st.just(INF)), st.booleans(),
       st.sampled_from((None, None, Q(1, 97), Q(2))))
def test_config_concat_and_slice_match_reference(chain, t1, t2, closed, zeta):
    got, want = chain[0], chain[0]
    for nxt in chain[1:]:
        got, want = config_concat(got, nxt), ref_config_concat(want, nxt)
        _same(got, want)
    _same(got.interval, ref_interval(want))
    closed = closed and is_finite(t2)
    _same(_outcome(config_slice, got, t1, t2, closed, zeta),
          _outcome(ref_config_slice, want, t1, t2, closed, zeta))
    # the window's own ends: the cut at each breakpoint of the chain
    for p in chain:
        for a, b in ((p.b, p.e), (got.b, p.e), (p.b, got.e)):
            if is_finite(a):
                for c in (False, True) if is_finite(b) else (False,):
                    _same(_outcome(config_slice, got, a, b, c),
                          _outcome(ref_config_slice, want, a, b, c))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(chains(), st.booleans(), times(), st.one_of(times(), st.just(INF)))
def test_splice_matches_reference(chain, stay, m1, m2):
    c = chain[0]
    nxt = EPSILON if stay or len(chain) == 1 else chain[1]
    _same(splice(c, nxt, m1, m2), ref_splice(c, nxt, m1, m2))
    # the windows _responses asks for: a successor's own ends
    for p in chain:
        _same(splice(c, nxt, p.b, p.e), ref_splice(c, nxt, p.b, p.e))
        _same(splice(c, nxt, c.b, p.e), ref_splice(c, nxt, c.b, p.e))


def test_non_consecutive_concat_is_refused_by_both():
    c = make_config("m", 0, 1, {"u": 0}, {"u": 1})
    d = make_config("m", Q(3, 2), 2, {"u": 0}, {"u": 1})
    for concat in (config_concat, ref_config_concat):
        with pytest.raises(NonConsecutive):
            concat(c, d)
