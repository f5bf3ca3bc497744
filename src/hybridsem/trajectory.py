"""Trajectories, traces, duration, timeline, sampling, maximality, reach.

A trajectory is a contiguous sequence of configurations starting at
time 0.  All but the last configuration are right-open; the last is
closed exactly when the trajectory is complete and finite.  Infinite
trajectories are represented as horizon-truncated prefixes carrying an
explicit `truncated` flag, and operations whose meaning depends on
completeness reject or qualify truncated inputs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import (
    EmptyConfiguration,
    GapBetweenConfigurations,
    LastNotClosed,
    NotStartingAtZero,
    ParamConstraintViolated,
    TruncatedInput,
)
from .flow_config import EPSILON, UNDEFINED, Configuration, State, config_slice, is_empty, pieces
from .time_core import INF, Q, TimeInterval, is_finite, time_str

__all__ = [
    "Trajectory",
    "DiscreteTrace",
    "trajectory_validate",
    "trajectory_duration",
    "trajectory_eval",
    "trajectory_timeline",
    "trajectory_sample",
    "grid_step",
    "trajectory_slice",
    "prefix_of",
    "maximal_filter",
    "reach",
    "trajectory_csv",
]


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


def trajectory_duration(s: Trajectory):
    """e of the last configuration; a lower bound when truncated."""
    return s.duration


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


def trajectory_sample(s: Trajectory, delta, horizon=None) -> DiscreteTrace:
    """h_delta: states at times n*delta up to the duration.

    Complete finite trajectories include the endpoint sample when it
    lands on the grid; truncated (or unbounded) ones stop strictly
    before the horizon.
    """
    delta = grid_step(delta)
    dur = s.duration
    if not is_finite(dur):
        if horizon is None:
            raise TruncatedInput("unbounded trajectory needs an explicit horizon")
        dur, strict = Q(horizon), True
    elif s.truncated:
        strict = True
    else:
        strict = False
    states = []
    n = 0
    while True:
        t = n * delta
        if t > dur or (strict and t == dur):
            break
        st = trajectory_eval(s, t)
        if st is UNDEFINED:
            break
        states.append(st)
        n += 1
    return DiscreteTrace(tuple(states))


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
    hi = c.e if is_finite(c.e) else None
    for name, init in c.flow.initial:
        rate = dict(c.flow.rate)[name]
        if rate == 0 or hi is None:
            # unbounded interval: constant flows only have finite range
            if rate == 0:
                out[name] = (init, init)
            else:
                out[name] = (init, INF) if rate > 0 else (None, init)
            continue
        end = init + rate * (hi - c.b)
        out[name] = (min(init, end), max(init, end))
    return out


def reach(trajs: Iterable[Trajectory], grid, horizon=None):
    """Grid-sampled reachable states plus exact per-configuration ranges."""
    grid = Q(grid)
    states = set()
    ranges = []
    for s in trajs:
        trace = trajectory_sample(s, grid, horizon=horizon)
        states.update(trace.states)
        for c in s.configs:
            for p in pieces(c):
                ranges.append((p.flow.mode, config_var_ranges(p)))
    return states, ranges


def trajectory_csv(s: Trajectory, grid) -> str:
    """CSV dump on the grid plus all mode-change times."""
    grid = grid_step(grid)
    names = pieces(s.configs[0])[0].flow.var_names()
    times = set(t for t in trajectory_timeline(s) if is_finite(t))
    dur = s.duration
    if is_finite(dur):
        n = 0
        while n * grid <= dur:
            times.add(n * grid)
            n += 1
    lines = ["time,mode," + ",".join(names)]
    for t in sorted(times):
        st = trajectory_eval(s, t)
        if st is UNDEFINED:
            continue
        row = [str(t), st.mode] + [str(st.var(n)) for n in names]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
