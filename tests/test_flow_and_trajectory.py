import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridsem.discretize import timeful_sample
from hybridsem.errors import (
    EmptyIntersection,
    GapBetweenConfigurations,
    LastNotClosed,
    NotStartingAtZero,
    TruncatedInput,
)
from hybridsem.flow_config import (
    EPSILON,
    PiecewiseConfiguration,
    config_concat,
    config_slice,
    UNDEFINED,
    make_config,
)
from hybridsem.time_core import INF, is_finite
from hybridsem.trajectory import (
    DiscreteTrace,
    config_var_ranges,
    grid_step,
    maximal_filter,
    prefix_of,
    trajectory_eval,
    trajectory_sample,
    trajectory_slice,
    trajectory_timeline,
    trajectory_validate,
)

small_q = st.fractions(min_value=-4, max_value=4, max_denominator=4)


def chain(*specs, truncated=False):
    """specs: (mode, lo, hi, u0, rate) tuples; the last one closed."""
    cfgs = []
    for i, (mode, lo, hi, u0, rate) in enumerate(specs):
        closed = (i == len(specs) - 1) and not truncated
        cfgs.append(make_config(mode, lo, hi, {"u": u0}, {"u": rate}, closed_hi=closed))
    return trajectory_validate(cfgs, truncated=truncated)


def test_epsilon_is_empty():
    from hybridsem.flow_config import cfg_b, cfg_e, is_empty

    assert cfg_e(EPSILON) < cfg_b(EPSILON)
    assert is_empty(EPSILON)


def test_concat_junction_second_wins():
    c = make_config("a", 0, 1, {"u": 0}, {"u": 1}, closed_hi=True)
    d = make_config("b", 1, 2, {"u": 5}, {"u": 0}, closed_hi=True)
    cat = config_concat(c, d)
    assert cat.state_at(Q(1)).var("u") == 5
    assert cat.state_at(Q(1, 2)).var("u") == Q(1, 2)


def test_slice_preserves_values():
    c = make_config("a", 0, 4, {"u": 1}, {"u": 2}, closed_hi=True)
    s = config_slice(c, Q(1), Q(3), closed=True)
    assert s.b == 1 and s.e == 3
    assert s.state_at(Q(2)).var("u") == c.state_at(Q(2)).var("u") == 5


def test_slice_outside_raises():
    c = make_config("a", 0, 2, {"u": 0}, {"u": 0})
    with pytest.raises(EmptyIntersection):
        config_slice(c, Q(3), Q(4), closed=False)


def test_trajectory_shape_rules():
    with pytest.raises(NotStartingAtZero):
        chain(("a", 1, 2, 0, 0))
    with pytest.raises(LastNotClosed):
        trajectory_validate([make_config("a", 0, 2, {"u": 0}, {"u": 0})])
    with pytest.raises(GapBetweenConfigurations):
        trajectory_validate(
            [
                make_config("a", 0, 1, {"u": 0}, {"u": 0}),
                make_config("a", 2, 3, {"u": 0}, {"u": 0}, closed_hi=True),
            ]
        )


def test_eval_left_closed():
    s = chain(("a", 0, 1, 0, 1), ("b", 1, 2, 7, 0))
    assert trajectory_eval(s, Q(1)).var("u") == 7  # successor wins
    assert trajectory_eval(s, Q(2)).var("u") == 7  # closed end
    assert trajectory_timeline(s) == (0, 1, 2)


def test_sample_endpoint_convention():
    s = chain(("a", 0, 2, 1, 0))
    assert len(trajectory_sample(s, Q(1)).states) == 3  # 0, 1, 2: complete
    t = chain(("a", 0, 2, 1, 0), truncated=True)
    assert len(trajectory_sample(t, Q(1)).states) == 2  # strict at the cut


def test_prefix_and_maximal():
    long = chain(("a", 0, 1, 0, 1), ("b", 1, 2, 1, 1))
    short = trajectory_slice(long, Q(1))
    assert prefix_of(short, long)
    assert maximal_filter({long, short}) == {long}
    trunc = chain(("a", 0, 1, 0, 1), truncated=True)
    with pytest.raises(TruncatedInput):
        maximal_filter({trunc})


def test_unbounded_sampling_needs_a_horizon():
    s = trajectory_validate([make_config("a", 0, INF, {"u": 0}, {"u": 1})])
    for sample in (trajectory_sample, timeful_sample):
        with pytest.raises(TruncatedInput):
            sample(s, Q(1))
    assert len(timeful_sample(s, Q(1), 3)) == 3  # 0, 1, 2: strict at the horizon


def test_var_ranges_exact():
    c = make_config("a", 0, 2, {"u": 1}, {"u": -2}, closed_hi=True)
    lo, hi = config_var_ranges(c)["u"]
    assert (lo, hi) == (-3, 1)


def test_piecewise_state_lookup():
    p = PiecewiseConfiguration(
        (
            make_config("a", 0, 1, {"u": 0}, {"u": 1}),
            make_config("a", 1, 2, {"u": 5}, {"u": 0}, closed_hi=True),
        )
    )
    assert p.state_at(Q(1, 2)).var("u") == Q(1, 2)
    assert p.state_at(Q(3, 2)).var("u") == 5
    assert p.b == 0 and p.e == 2


@settings(derandomize=True, max_examples=60)
@given(small_q, small_q, st.integers(1, 5))
def test_slice_value_preservation_property(u0, rate, width):
    c = make_config("m", 0, width, {"u": u0}, {"u": rate}, closed_hi=True)
    mid = Q(width, 2)
    s = config_slice(c, Q(0), mid, closed=True)
    for k in range(5):
        t = mid * k / 4
        assert s.state_at(t) == c.state_at(t)


@settings(derandomize=True, max_examples=40)
@given(st.integers(1, 4), st.integers(1, 3))
def test_sample_counts(width, den):
    s = chain(("m", 0, width, 0, 1))
    delta = Q(1, den)
    trace = trajectory_sample(s, delta)
    assert len(trace.states) == width * den + 1
    for i, st_ in enumerate(trace.states):
        assert st_.var("u") == i * delta


# --- the reference sampler ---------------------------------------------------
# The earlier trajectory_sample, which walked the grid on its own, kept
# verbatim apart from its name.


def _ref_trajectory_sample(s, delta, horizon=None) -> DiscreteTrace:
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


def _random_sampled_trajectory(rng):
    """Cuts over denominators 1 to 3 from 0; the last configuration ends
    closed (at times a point), open and truncated, or unbounded, and
    some configurations are two pieces in two modes."""
    cuts = sorted({Q(0)} | {Q(rng.randint(1, 12), rng.randint(1, 3)) for _ in range(3)})
    kind = rng.choice(("complete", "point", "truncated", "unbounded"))
    if kind == "point":
        cuts.append(cuts[-1])
    ends = cuts[1:-1] + [INF if kind == "unbounded" else cuts[-1]]

    def piece(lo, hi, closed=False):
        return make_config(rng.choice("ab"), lo, hi, {"u": Q(rng.randint(-4, 4), 2)},
                           {"u": rng.choice((-1, 0, 2))}, closed_hi=closed)

    configs = []
    for i, (lo, hi) in enumerate(zip(cuts, ends)):
        closed = i == len(ends) - 1 and kind in ("complete", "point")
        if hi != lo and rng.random() < 0.3:
            mid = lo + Q(1, 2) if not is_finite(hi) else (lo + hi) / 2
            configs.append(config_concat(piece(lo, mid), piece(mid, hi, closed)))
        else:
            configs.append(piece(lo, hi, closed))
    return trajectory_validate(configs, truncated=kind == "truncated")


def test_sample_matches_the_reference_sampler():
    """On seeded validated trajectories (complete, truncated, unbounded;
    on-grid and off-grid steps; horizons below, at and beyond the
    duration, or none), trajectory_sample gives the reference's samples
    or raises as it does."""
    rng = random.Random(902)
    seen = dict.fromkeys(("complete on grid", "complete off grid", "truncated",
                          "unbounded", "refused"), 0)
    for _ in range(400):
        s = _random_sampled_trajectory(rng)
        delta = rng.choice((Q(1), Q(1, 2), Q(1, 3), Q(2, 3), Q(3, 4), Q(5, 2)))
        horizon = rng.choice((None, Q(rng.randint(-1, 16), rng.randint(1, 3))))
        try:
            want = _ref_trajectory_sample(s, delta, horizon)
        except TruncatedInput:
            with pytest.raises(TruncatedInput):
                trajectory_sample(s, delta, horizon)
            seen["refused"] += 1
            continue
        assert trajectory_sample(s, delta, horizon) == want
        if not is_finite(s.duration):
            seen["unbounded"] += 1
        elif s.truncated:
            seen["truncated"] += 1
        else:
            on_grid = (s.duration / delta).denominator == 1
            seen["complete on grid" if on_grid else "complete off grid"] += 1
    assert all(seen.values()), seen
