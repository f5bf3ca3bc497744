"""Exact time points and intervals.

All finite time values are `fractions.Fraction`; the unbounded upper
endpoint is the distinguished value INF (and the empty configuration's
end time is NEG_INF).  No floats appear anywhere in verdicts.

Intervals are left-closed, right-open by default; a closed right end
marks a final configuration.  Every interval constructed through
interval_make has duration at least zeta, the system-level minimum
configuration duration that rules out zeno behavior.  Times are read
as integers only through rank_range, rank_of and ticks, and times up to
INF are compared by `earlier`, which cross-multiplies their numerators
and denominators instead of going through Fraction's comparison.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational

from .errors import DurationBelowZeta, NegativeTime
from .records import record

__all__ = [
    "Q",
    "exact",
    "INF",
    "NEG_INF",
    "TimeInterval",
    "interval_make",
    "interval_closure",
    "interval_intersect",
    "is_finite",
    "earlier",
    "tmin",
    "tmax",
    "time_str",
    "rank_range",
    "rank_of",
    "ticks",
]

Q = Fraction


def exact(x) -> Fraction:
    """x as a Fraction: x itself when it is one, so that no copy is built."""
    return x if x.__class__ is Fraction else Fraction(x)


class _Extended:
    """Signed infinity, totally ordered against exact rationals.

    INF also reads as the ratio 1/0 (`numerator`, `denominator`), so that
    `earlier` orders it after every finite time with no branch.  NEG_INF
    has no such reading: -1/0 would not be earlier than 1/0."""

    __slots__ = ("sign", "numerator", "denominator")

    def __init__(self, sign: int):
        self.sign = sign
        if sign > 0:
            self.numerator, self.denominator = 1, 0

    def __repr__(self):
        return "+inf" if self.sign > 0 else "-inf"

    def __eq__(self, other):
        return isinstance(other, _Extended) and other.sign == self.sign

    def __hash__(self):
        return hash(("extended-time", self.sign))

    def __lt__(self, other):
        if isinstance(other, _Extended):
            return self.sign < other.sign
        if isinstance(other, Rational):
            return self.sign < 0
        return NotImplemented

    def __le__(self, other):
        return self == other or self < other

    def __gt__(self, other):
        if isinstance(other, _Extended):
            return self.sign > other.sign
        if isinstance(other, Rational):
            return self.sign > 0
        return NotImplemented

    def __ge__(self, other):
        return self == other or self > other

    # arithmetic only where the sign is unambiguous
    def __add__(self, other):
        if isinstance(other, Rational):
            return self
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Rational):
            return self
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, Rational):
            return NEG_INF if self.sign > 0 else INF
        return NotImplemented


INF = _Extended(1)
NEG_INF = _Extended(-1)


def is_finite(t) -> bool:
    return not isinstance(t, _Extended)


def earlier(a, b) -> bool:
    """a < b for times (Fractions, ints or INF), in integers: INF is 1/0,
    so every finite time is earlier than INF and INF is earlier than
    nothing."""
    return a.numerator * b.denominator < b.numerator * a.denominator


def tmin(*ts):
    """The least of finite times and INF."""
    out = ts[0]
    for t in ts[1:]:
        if earlier(t, out):
            out = t
    return out


def tmax(*ts):
    out = ts[0]
    for t in ts[1:]:
        if t > out:
            out = t
    return out


def time_str(t) -> str:
    if t is INF:
        return "inf"
    if t is NEG_INF:
        return "-inf"
    return str(t)


@record(frozen=True)
class TimeInterval:
    lo: Fraction
    hi: object  # Fraction or INF
    closed_hi: bool = False

    @property
    def b(self):
        return self.lo

    @property
    def e(self):
        return self.hi

    @property
    def d(self):
        return self.hi - self.lo

    def contains(self, t) -> bool:
        if not is_finite(t) or earlier(t, self.lo):
            return False
        return earlier(t, self.hi) or self.closed_hi and not earlier(self.hi, t)

    def subset_of(self, other: "TimeInterval") -> bool:
        if earlier(self.lo, other.lo) or earlier(other.hi, self.hi):
            return False
        return earlier(self.hi, other.hi) or other.closed_hi or not self.closed_hi

    def __repr__(self):
        close = "]" if self.closed_hi else ")"
        return f"[{time_str(self.lo)},{time_str(self.hi)}{close}"


def interval_make(lo, hi, zeta, closed_hi: bool = False) -> TimeInterval:
    lo = Q(lo)
    if lo < 0:
        raise NegativeTime(f"interval start {lo} < 0")
    if is_finite(hi):
        hi = Q(hi)
        if hi - lo < zeta:
            raise DurationBelowZeta(f"duration {hi - lo} < zeta {zeta}")
    else:
        if closed_hi:
            raise DurationBelowZeta("unbounded interval cannot be closed")
        hi = INF
    return TimeInterval(lo, hi, closed_hi)


def interval_closure(i: TimeInterval) -> TimeInterval:
    # cl([t1,inf[) = [t1,inf[
    if not is_finite(i.hi) or i.closed_hi:
        return i
    return TimeInterval(i.lo, i.hi, True)


def interval_intersect(i: TimeInterval, j: TimeInterval):
    """Exact set intersection; returns None when empty.

    At most four comparisons of endpoints, each by `earlier`: one for the
    start, at most two for the end (which also decide whether it is
    closed), and one of start against end.  An unbounded end is never
    closed.

    Sub-zeta intersections are reported as-is; callers that need the
    minimum-duration guarantee enforce it themselves.
    """
    lo = j.lo if earlier(i.lo, j.lo) else i.lo
    ihi, jhi = i.hi, j.hi
    if earlier(ihi, jhi):
        hi, closed = ihi, i.closed_hi
    elif earlier(jhi, ihi):
        hi, closed = jhi, j.closed_hi
    else:
        hi, closed = ihi, i.closed_hi and j.closed_hi and ihi is not INF
    if earlier(hi, lo) if closed else not earlier(lo, hi):
        return None
    return TimeInterval(lo, hi, closed)


def rank_range(w: TimeInterval, p: int, q: int) -> tuple:
    """(first, last): the least and greatest n with n*p/q in w (p, q > 0);
    last is INF for an unbounded w, even one marked closed, < first for none."""
    first = -(-w.lo.numerator * q // (w.lo.denominator * p))
    if w.hi is INF:
        return first, INF
    return first, (w.hi.numerator * q - (not w.closed_hi)) // (w.hi.denominator * p)


def rank_of(t, p: int, q: int):
    """n with n*p/q == t, or None when t (INF included) is off the grid."""
    n, r = (None, 1) if t is INF else divmod(t.numerator * q, t.denominator * p)
    return None if r else n


def ticks(t, D: int) -> int:
    """t*D for a finite t whose denominator divides D."""
    return t.numerator * (D // t.denominator)
