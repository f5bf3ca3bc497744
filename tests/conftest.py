"""Shared randomized generators for the exact-arithmetic test suite,
ref_state_related, the reference for membership of bare state pairs, and
span_cover_related, a decision of configuration pairs that shares no
decision code with the window kernel.

Everything is seeded; tests freeze seeds so failures replay exactly.
"""

import random
from fractions import Fraction as Q

import pytest

from hybridsem.errors import EndpointSymbolsUnbound
from hybridsem.flow_config import make_config, pieces
from hybridsem.hts import HybridTransitionSystem
from hybridsem.relation import (
    _clause_spans, _endpoint_env, _interval_span, _span_meet, _span_minus
)
from hybridsem.trajectory import trajectory_validate


def rnd_q(rng, lo=-3, hi=3, dens=(1, 2, 4)):
    d = rng.choice(dens)
    return Q(rng.randint(lo * d, hi * d), d)


def random_explicit(rng, delta=Q(1), max_levels=4, max_width=2, modes=("m",)):
    """Grid-aligned layered explicit system over one variable u.

    Level i occupies [i*delta, (i+1)*delta); the last level is closed.
    Every config in a level connects to a nonempty subset of the next
    level, so all non-final configurations have successors.
    """
    levels = rng.randint(1, max_levels)
    configs, level_idx = [], []
    for i in range(levels):
        width = rng.randint(1, max_width)
        idxs = []
        for _ in range(width):
            c = make_config(
                rng.choice(modes),
                i * delta,
                (i + 1) * delta,
                {"u": rnd_q(rng)},
                {"u": rnd_q(rng)},
                closed_hi=(i == levels - 1),
            )
            idxs.append(len(configs))
            configs.append(c)
        level_idx.append(idxs)
    edges = []
    for i in range(levels - 1):
        for a in level_idx[i]:
            targets = [b for b in level_idx[i + 1] if rng.random() < 0.7]
            if not targets:
                targets = [rng.choice(level_idx[i + 1])]
            edges.extend((a, b) for b in targets)
    initial = tuple(level_idx[0])
    return HybridTransitionSystem.from_explicit(
        ("u",), Q(1, 1000), tuple(configs), tuple(edges), initial
    )


def random_trajectory(rng, max_configs=3, closed=True):
    """Complete finite trajectory over u with random breakpoints."""
    n = rng.randint(1, max_configs)
    cuts = sorted({Q(0)} | {Q(rng.randint(1, 8), rng.choice((1, 2))) for _ in range(n)})
    while len(cuts) < n + 1:
        cuts.append(cuts[-1] + 1)
    cuts = cuts[: n + 1]
    configs = []
    for i in range(n):
        configs.append(
            make_config(
                "m",
                cuts[i],
                cuts[i + 1],
                {"u": rnd_q(rng)},
                {"u": rnd_q(rng)},
                closed_hi=(i == n - 1 and closed),
            )
        )
    return trajectory_validate(configs, truncated=not closed)


@pytest.fixture
def rng():
    return random.Random(20260824)


def _ref_state_env(t, s, sbar) -> dict:
    env = {"t": Q(t)}
    for k, v in s.vars:
        env["c_" + k] = v
    for k, v in sbar.vars:
        env["a_" + k] = v
    return env


def ref_state_related(r, t, s, sbar) -> bool:
    """Membership of a state pair in r(t), clause by clause through
    AffineConstraint.holds: the evaluator state_related had before it
    became relation.related_candidates with one candidate, kept verbatim
    apart from its name, as an independent reference.  Reaching a clause
    with B/E symbols or a `dynamic` part raises EndpointSymbolsUnbound."""
    if not r.in_domain(t):
        return False
    for clause in r.clauses:
        if clause.window is not None and not clause.window.contains(t):
            continue
        if not clause.guards_match(s.mode, sbar.mode):
            continue
        if clause.uses_endpoints():
            raise EndpointSymbolsUnbound("clause uses B/E symbols; a state pair binds none")
        env = _ref_state_env(t, s, sbar)
        try:
            if all(con.holds(env) for con in clause.constraints):
                return True
        except KeyError:
            continue  # clause mentions a symbol this pair cannot bind
    return False


def span_cover_related(r, c, d, w) -> bool:
    """gamma(r) on the overlap w of c and d: on each piece pair, the part
    of w they share inside dom(r), less the spans where some clause holds,
    must be empty."""
    endpoints = _endpoint_env(c, d)
    for cp in pieces(c):
        for dp in pieces(d):
            need = _span_meet(_interval_span(w), _interval_span(cp.interval))
            need = _span_meet(need, _interval_span(dp.interval))
            if need is None:
                continue
            if r.domain is None:
                left = [need]
            else:
                left = [m for x in r.domain if (m := _span_meet(need, _interval_span(x)))]
            for clause in r.clauses:
                for y in _clause_spans(clause, cp, dp, endpoints):
                    left = [p for x in left for p in _span_minus(x, y)]
            if left:
                return False
    return True
