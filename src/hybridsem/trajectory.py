"""Trajectories, traces, duration, timeline, sampling, maximality.

A trajectory is a contiguous sequence of configurations starting at
time 0.  All but the last configuration are right-open; the last is
closed exactly when the trajectory is complete and finite.  Infinite
trajectories are represented as horizon-truncated prefixes carrying an
explicit `truncated` flag, and operations whose meaning depends on
completeness reject or qualify truncated inputs.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import (
    EmptyConfiguration,
    GapBetweenConfigurations,
    LastNotClosed,
    NotStartingAtZero,
    ParamConstraintViolated,
    TruncatedInput,
)
from .flow_config import UNDEFINED, Configuration, State, config_slice, is_empty, pieces
from .records import record
from .time_core import INF, Q, TimeInterval, is_finite, rank_of, rank_range, time_str

__all__ = [
    "Trajectory",
    "DiscreteTrace",
    "TimefulState",
    "trajectory_validate",
    "trajectory_eval",
    "trajectory_timeline",
    "timeful_sample",
    "timeless_sample",
    "trajectory_sample",
    "grid_step",
    "grid_times",
    "trajectory_slice",
    "prefix_of",
    "maximal_filter",
    "trajectory_csv",
]


@record(frozen=True)
class Trajectory:
    configs: tuple
    truncated: bool = False

    @property
    def duration(self):
        return self.configs[-1].e

    @property
    def complete(self) -> bool:
        return not self.truncated

    def __repr__(self):
        tag = ", truncated" if self.truncated else ""
        return f"Traj({list(self.configs)}{tag})"


@record(frozen=True)
class TimefulState:
    state: State
    rank: int

    def __repr__(self):
        return f"<{self.state!r},{self.rank}>"


@record(frozen=True)
class DiscreteTrace:
    states: tuple

    def __repr__(self):
        return "Trace" + repr(list(self.states))


def trajectory_validate(configs: Sequence, truncated: bool = False) -> Trajectory:
    configs = tuple(configs)
    if not configs or any(is_empty(c) for c in configs):
        raise EmptyConfiguration("trajectory must be a nonempty list of configurations")
    if configs[0].b != 0:
        raise NotStartingAtZero(f"first configuration starts at {configs[0].b}")
    for a, b in itertools.pairwise(configs):
        if a.interval.closed_hi:
            raise LastNotClosed(f"non-final configuration {a!r} is closed")
        if a.e != b.b:
            raise GapBetweenConfigurations(
                f"e={time_str(a.e)} followed by b={time_str(b.b)}"
            )
    last = configs[-1]
    if truncated:
        if last.interval.closed_hi or not is_finite(last.e):
            raise LastNotClosed("truncated prefix must end in a finite open configuration")
    else:
        if is_finite(last.e) and not last.interval.closed_hi:
            raise LastNotClosed("complete finite trajectory must end in a closed configuration")
    return Trajectory(configs, truncated)


def trajectory_eval(s: Trajectory, t):
    """State at time t under the left-closed convention; UNDEFINED outside."""
    for c in s.configs:
        if c.interval.contains(t):
            return c.state_at(t)
    return UNDEFINED


def trajectory_timeline(s: Trajectory) -> tuple:
    return (s.configs[0].b,) + tuple(c.e for c in s.configs)


def grid_step(delta) -> Fraction:
    """delta as an exact rational; a grid step must be positive."""
    delta = Q(delta)
    if delta <= 0:
        raise ParamConstraintViolated(f"grid step {delta} must be positive")
    return delta


def grid_times(dur, step: Fraction) -> list:
    """The times n*step in [0, dur], in order, for a positive step."""
    p, q = step.numerator, step.denominator
    return [Q(n * p, q) for n in range(rank_range(TimeInterval(Q(0), dur, True), p, q)[1] + 1)]


def _ranks(w: TimeInterval, delta) -> TimeInterval:
    """The ranks n with n*delta in w, as a closed integer window."""
    first, last = rank_range(w, delta.numerator, delta.denominator)
    return TimeInterval(first, last, last is not INF)


def timeful_sample(s: Trajectory, delta, horizon=None) -> tuple:
    """Rank-annotated samples at n*delta strictly below the duration
    (matching the published trace sets; the final closed-end state is
    produced only by the closing transition rule, not by sampling).

    Each sample is the state of the first configuration holding n*delta,
    UNDEFINED where none does, as trajectory_eval gives it; one pointer
    walks the configurations in time order, passing each once the grid
    is beyond its last rank."""
    delta = grid_step(delta)
    last = _ranks(TimeInterval(Q(0), s.duration), delta).hi
    if horizon is not None:
        last = min(last, _ranks(TimeInterval(Q(0), Q(horizon)), delta).hi)
    if last is INF:
        raise TruncatedInput("unbounded trajectory needs an explicit horizon")
    configs, k = s.configs, 0
    held = [_ranks(c.interval, delta) for c in configs]  # ranks each holds
    out = []
    for n in range(last + 1):
        while k < len(held) and held[k].hi < n:
            k += 1
        j = k
        while j < len(held) and not held[j].contains(n):
            j += 1
        out.append(TimefulState(configs[j].state_at(n * delta) if j < len(configs)
                                else UNDEFINED, n))
    return tuple(out)


def timeless_sample(s: Trajectory, delta, horizon=None) -> tuple:
    return tuple(u.state for u in timeful_sample(s, delta, horizon))


def trajectory_sample(s: Trajectory, delta, horizon=None) -> DiscreteTrace:
    """h_delta: states at times n*delta up to the duration.

    The states of timeful_sample, which stop strictly before the end;
    a complete finite trajectory adds its closed end when that end lands
    on the grid.  The horizon bounds an unbounded trajectory only.
    """
    finite = is_finite(s.duration)
    states = timeless_sample(s, delta, None if finite else horizon)
    delta = grid_step(delta)
    if s.complete and rank_of(s.duration, delta.numerator, delta.denominator) is not None:
        states += (s.configs[-1].state_at(s.duration),)
    return DiscreteTrace(states)


def trajectory_slice(s: Trajectory, t) -> Trajectory:
    """Complete prefix of s on [0, t]; t must be within the duration."""
    t = Q(t)
    configs = []
    for c in s.configs:
        if c.b >= t:
            break
        if c.interval.contains(t) or c.e == t:
            configs.append(config_slice(c, c.b, t, closed=True))
            break
        configs.append(c)
    return Trajectory(tuple(configs), truncated=False)


def prefix_of(s: Trajectory, longer: Trajectory) -> bool:
    """True iff s equals longer restricted to [0, duration(s)]."""
    d = s.duration
    if not is_finite(d):
        return s.configs == longer.configs
    if is_finite(longer.duration) and d > longer.duration:
        return False
    if d == longer.duration and not longer.truncated:
        return s.configs == longer.configs
    cut = trajectory_slice(longer, d)
    return s.configs == cut.configs


def maximal_filter(trajs: Iterable[Trajectory]) -> set:
    """Drop every trajectory that is a strict prefix of another member."""
    trajs = list(trajs)
    for s in trajs:
        if s.truncated:
            raise TruncatedInput(f"{s!r} is a horizon prefix, not a complete trajectory")
    out = set()
    for s in trajs:
        if any(other != s and prefix_of(s, other) for other in trajs):
            continue
        out.add(s)
    return out


def config_var_ranges(c: Configuration) -> dict:
    """Exact per-variable [min, max] over the configuration's interval."""
    out = {}
    for name, (rate, offset) in c.flow.lines:
        start = rate * c.b + offset
        if rate == 0:
            out[name] = (start, start)
        elif not is_finite(c.e):
            # unbounded interval: constant flows only have finite range
            out[name] = (start, INF) if rate > 0 else (None, start)
        else:
            end = rate * c.e + offset
            out[name] = (min(start, end), max(start, end))
    return out


def trajectory_csv(s: Trajectory, grid) -> str:
    """CSV dump on the grid plus all mode-change times."""
    grid = grid_step(grid)
    names = pieces(s.configs[0])[0].flow.var_names()
    times = set(t for t in trajectory_timeline(s) if is_finite(t))
    if is_finite(s.duration):
        times.update(grid_times(s.duration, grid))
    lines = ["time,mode," + ",".join(names)]
    for t in sorted(times):
        st = trajectory_eval(s, t)
        if st is UNDEFINED:
            continue
        row = [str(t), st.mode] + [str(st.var(n)) for n in names]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
