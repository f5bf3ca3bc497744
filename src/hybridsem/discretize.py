"""Timeful discretization of trajectories, relations, and transition
systems, with the soundness hypotheses and the Milner-style check on
the discretized side.

Discrete states carry their sample rank so that a constant flow does
not collapse into a spurious cycle.  Trajectory sampling keeps the
ranks n with n*delta strictly below the duration; the transition rules
additionally emit a marked "closing" edge to the final state of a
successor-free configuration, and semantics-level comparisons exclude
those closing edges so that both computations return the same trace
sets (the residual asymmetry between the two conventions is reported
by theorem6_check, never silently patched).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .errors import DomainGapAtGridPoint, Misaligned, TruncatedInput
from .flow_config import State, overlapping, pieces
from .relation import TimedStateRelation, exists_window_related, state_related
from .hts import semantics_generate
from .simulation import config_graph, greatest_fixpoint, system_graph
from .time_core import Q, TimeInterval, is_finite
from .trajectory import Trajectory, grid_step, trajectory_eval

__all__ = [
    "TimefulState",
    "DiscreteTransitionSystem",
    "grid_alignment_check",
    "timeful_sample",
    "timeless_sample",
    "relation_discretize",
    "hts_discretize",
    "timeless_discretize",
    "discrete_traces",
    "theorem6_check",
    "timeless_overapprox_demo",
    "discretization_hypotheses",
    "milner_sim_check",
    "greatest_discrete_simulation",
]


@dataclass(frozen=True)
class TimefulState:
    state: State
    rank: int

    def __repr__(self):
        return f"<{self.state!r},{self.rank}>"


@dataclass(frozen=True)
class DiscreteTransitionSystem:
    states: frozenset
    initial: frozenset
    edges: frozenset  # (TimefulState, TimefulState), rank increments by 1
    closing: frozenset = frozenset()  # edges to a final state of a
    # successor-free configuration (the closed-interval convention)
    from_tau: frozenset = frozenset()  # boundary edges induced by an
    # actual configuration transition (rule b); empty when the source
    # transition relation is empty

    def __post_init__(self):
        for a, b in self.edges:
            assert b.rank == a.rank + 1, f"edge {a!r}->{b!r} skips a rank"

    @cached_property
    def _succ(self) -> dict:
        return {u: tuple(sorted(vs, key=repr)) for u, vs in _adjacency(self.edges).items()}

    def succ(self, u) -> tuple:  # sorted by repr
        return self._succ.get(u, ())

    def to_dict(self) -> dict:
        def key(u):
            return {"rank": u.rank, "mode": u.state.mode,
                    "vars": {k: str(v) for k, v in u.state.vars}}

        return {
            "states": [key(u) for u in sorted(self.states, key=repr)],
            "initial": [key(u) for u in sorted(self.initial, key=repr)],
            "edges": [[key(a), key(b)] for a, b in sorted(self.edges, key=repr)],
            "closing": [[key(a), key(b)] for a, b in sorted(self.closing, key=repr)],
        }


def grid_alignment_check(h_or_graph, delta, horizon=None):
    """Every configuration must start and end on the grid; returns
    (ok, witness configuration or None)."""
    delta = grid_step(delta)
    G = system_graph(h_or_graph, horizon)
    for c in G.configs():
        if (c.b / delta).denominator != 1:
            return False, c
        if is_finite(c.e) and (c.e / delta).denominator != 1:
            return False, c
    return True, None


def timeful_sample(s: Trajectory, delta, horizon=None) -> tuple:
    """Rank-annotated samples at n*delta strictly below the duration
    (matching the published trace sets; the final closed-end state is
    produced only by the closing transition rule, not by sampling)."""
    delta = grid_step(delta)
    dur = s.duration
    if not is_finite(dur) or (horizon is not None and Q(horizon) < dur):
        dur = Q(horizon) if horizon is not None else None
        if dur is None:
            raise TruncatedInput("unbounded trajectory needs an explicit horizon")
    out = []
    n = 0
    while n * delta < dur:
        out.append(TimefulState(trajectory_eval(s, n * delta), n))
        n += 1
    return tuple(out)


def timeless_sample(s: Trajectory, delta, horizon=None) -> tuple:
    return tuple(u.state for u in timeful_sample(s, delta, horizon))


def _state_closed(c, t) -> State:
    """State at t with the configuration's interval taken closed (the
    value a right-open configuration approaches at its end)."""
    ps = pieces(c)
    for p in ps:
        if p.interval.contains(t):
            return p.flow.state_at(t)
    return ps[-1].flow.state_at(t)


def relation_discretize(
    r: TimedStateRelation,
    delta,
    d1: DiscreteTransitionSystem,
    d2: DiscreteTransitionSystem,
    extra_abstract: tuple = (),
) -> frozenset:
    """Rank-preserving pairs related by r at the sample time; refuses
    when r has a domain gap at an inhabited grid point.  extra_abstract
    admits abstract candidates that the sampled system never reaches."""
    delta = Q(delta)
    abstract = d2.states | set(extra_abstract)
    for u in d1.states | abstract:
        if not r.in_domain(u.rank * delta):
            raise DomainGapAtGridPoint(f"rank {u.rank} (t={u.rank * delta})")
    pairs = set()
    for u in d1.states:
        for v in abstract:
            if u.rank != v.rank:
                continue
            if state_related(r, u.rank * delta, u.state, v.state):
                pairs.add((u, v))
    return frozenset(pairs)


def hts_discretize(h_or_graph, delta, horizon=None) -> DiscreteTransitionSystem:
    """Transition rules: (a) internal steps strictly inside a
    configuration, (b) the last step jumps to the successor's first
    state, (c) a successor-free configuration closes onto its own final
    state (marked as a closing edge), (d) initial states at rank 0."""
    delta = grid_step(delta)
    G = system_graph(h_or_graph, horizon)
    ok, witness = grid_alignment_check(G, delta)
    if not ok:
        raise Misaligned(repr(witness))
    hcap = Q(horizon) if horizon is not None else None
    edges, closing, from_tau = set(), set(), set()
    states = set()

    def cap_ok(t) -> bool:
        return hcap is None or t <= hcap

    for c in G.configs():
        b, e = c.b, c.e
        n = int(b / delta)
        # (a) internal steps
        while is_finite(e) and (n + 1) * delta < e or (
            not is_finite(e) and cap_ok((n + 1) * delta)
        ):
            t0, t1 = n * delta, (n + 1) * delta
            if not cap_ok(t1):
                break
            u = TimefulState(_state_closed(c, t0), n)
            v = TimefulState(_state_closed(c, t1), n + 1)
            edges.add((u, v))
            states.update((u, v))
            n += 1
        if not is_finite(e) or (hcap is not None and e > hcap):
            continue
        n_end = int(e / delta)
        u = TimefulState(_state_closed(c, (n_end - 1) * delta), n_end - 1)
        succs = G.succ(c)
        if succs:
            for c2 in succs:  # (b)
                v = TimefulState(_state_closed(c2, e), n_end)
                edges.add((u, v))
                from_tau.add((u, v))
                states.update((u, v))
        elif c not in G.truncated:  # (c)
            v = TimefulState(_state_closed(c, e), n_end)
            edges.add((u, v))
            closing.add((u, v))
            states.update((u, v))
        else:
            states.add(u)
    initial = set()
    for c in G.initial:  # (d)
        u = TimefulState(_state_closed(c, c.b), int(c.b / delta))
        initial.add(u)
        states.add(u)
    return DiscreteTransitionSystem(
        frozenset(states), frozenset(initial), frozenset(edges),
        frozenset(closing), frozenset(from_tau),
    )


def timeless_discretize(h_or_graph, delta, horizon=None):
    """Rank-stripped edges; demonstration only (spurious cycles)."""
    d = hts_discretize(h_or_graph, delta, horizon)
    edges = frozenset((a.state, b.state) for a, b in d.edges)
    initial = frozenset(u.state for u in d.initial)
    return initial, edges


def discrete_traces(
    d: DiscreteTransitionSystem, include_closing: bool = False, max_rank: Optional[int] = None
) -> frozenset:
    """Maximal rank-annotated traces from the initial states."""
    usable = d.edges if include_closing else d.edges - d.closing
    adj = _adjacency((a, b) for a, b in usable if max_rank is None or b.rank <= max_rank)
    return frozenset(_maximal_paths(d.initial, adj))


def theorem6_check(h, delta, horizon):
    """Dual computation: sample the generated trajectories vs generate
    the discretized system.  Returns (ok, diff, notes)."""
    delta = Q(delta)
    sem = semantics_generate(h, horizon)
    lhs = frozenset(timeful_sample(s, delta, horizon) for s in sem.trajectories)
    G = config_graph(sem)
    d = hts_discretize(G, delta, horizon)
    max_rank = int(Q(horizon) / delta)
    rhs = frozenset(
        t for t in discrete_traces(d, include_closing=False, max_rank=max_rank)
        if t[-1].rank * delta <= Q(horizon)
    )
    # strict-sampling vs closing-rule reconciliation: trim nothing on the
    # sampling side, exclude closing edges on the generation side, and
    # report what was excluded
    notes = []
    if d.closing:
        notes.append(
            f"{len(d.closing)} closing edge(s) excluded from trace generation "
            "to match the strict sampling convention"
        )
    diff = {"only_sampled": lhs - rhs, "only_generated": rhs - lhs}
    return (lhs == rhs), diff, notes


def timeless_overapprox_demo(h, delta, horizon, max_len=4):
    """The rank-free discretization overapproximates: it may introduce
    cycles absent from the sampled traces.  Returns a report dict."""
    delta = Q(delta)
    sem = semantics_generate(h, horizon)
    sampled = frozenset(timeless_sample(s, delta, horizon) for s in sem.trajectories)
    initial, edges = timeless_discretize(config_graph(sem), delta, horizon)
    adj = _adjacency(edges)
    # a cycle exists iff some states each have a successor among them
    has_cycle = bool(greatest_fixpoint(adj, lambda u: [adj[u]]))
    generated = _maximal_paths(initial, adj, max_len)
    strict = sampled <= frozenset(
        g[: len(s)] for g in generated for s in sampled if len(g) >= len(s)
    ) and (has_cycle or len(generated) > len(sampled))
    return {
        "sampled": sampled,
        "generated_prefixes": frozenset(generated),
        "has_cycle": has_cycle,
        "strictly_overapproximates": strict,
    }


def _adjacency(edges) -> dict:
    """Successor lists of each source of an edge set."""
    adj: dict = {}
    for a, b in edges:
        adj.setdefault(a, []).append(b)
    return adj


def _maximal_paths(starts, adj: dict, max_len: Optional[int] = None) -> set:
    """Paths from starts along adj that end where no edge leaves, or
    once they hold max_len states."""
    out = set()
    stack = [(u,) for u in starts]
    while stack:
        path = stack.pop()
        nexts = adj.get(path[-1], ())
        if not nexts or (max_len is not None and len(path) >= max_len):
            out.add(path)
        else:
            stack.extend(path + (b,) for b in nexts)
    return out


def _grid_points(c, delta, hcap):
    """Ranks n with n*delta in the closed interval of c (capped)."""
    b = c.b
    e = c.e if is_finite(c.e) else hcap
    n = int(b / delta) + (0 if (b / delta).denominator == 1 else 1)
    while n * delta <= e and (hcap is None or n * delta <= hcap):
        yield n
        n += 1


def _exists_related(r: TimedStateRelation, c, cb, overlap, hcap) -> bool:
    """Exists t in the overlap of c and cb, and in dom(r), with related
    states; an unbounded overlap is cut to the closed window [lo, horizon]."""
    if hcap is not None and not is_finite(overlap.hi):
        overlap = TimeInterval(overlap.lo, hcap, True)
    return exists_window_related(r, c, cb, overlap)


def discretization_hypotheses(
    r: TimedStateRelation, h, hb, delta, horizon=None
) -> dict:
    """Check the four soundness hypotheses over the reachable finite
    universes; violations carry the sub-case label and a witness."""
    delta = grid_step(delta)
    hcap = Q(horizon) if horizon is not None else None
    G, Gb = system_graph(h, horizon), system_graph(hb, horizon)
    report = {"(68)": [], "(69)": [], "(70)": [], "(71)": []}

    def rel_at(n, s, sb) -> bool:
        return r.in_domain(n * delta) and state_related(r, n * delta, s, sb)

    # (68): r defined wherever some concrete configuration is inhabited
    for c in G.configs():
        for n in _grid_points(c, delta, hcap):
            if not r.in_domain(n * delta):
                report["(68)"].append((n, c))
    # (69): related abstract states must come from reachable configurations
    abstract_states = {}
    for cb in Gb.configs():
        for n in _grid_points(cb, delta, hcap):
            abstract_states.setdefault(n, set()).add(_state_closed(cb, n * delta))
    all_abstract = set().union(*abstract_states.values()) if abstract_states else set()
    for c in G.configs():
        for n in _grid_points(c, delta, hcap):
            if not r.in_domain(n * delta):
                continue
            s = _state_closed(c, n * delta)
            for sb in all_abstract:
                if state_related(r, n * delta, s, sb) and sb not in abstract_states.get(n, ()):
                    report["(69)"].append((n, c, sb))
    pairs = overlapping(G.configs(), Gb.configs())
    # (70): blocking abstract configurations end with the concrete one
    for c, cb, w in pairs:
        if Gb.succ(cb) or cb in Gb.truncated:
            continue
        if _exists_related(r, c, cb, w, hcap) and cb.e != c.e:
            report["(70)"].append((c, cb))
    # (71): compatibility of r with the boundary transition rules
    for c, cb, w in pairs:
        if not _exists_related(r, c, cb, w, hcap):
            continue
        ends = {c.e, cb.e}
        for n in _grid_points(c, delta, hcap):
            t = n * delta
            if not (cb.b <= t <= cb.e):
                continue
            s, sb = _state_closed(c, t), _state_closed(cb, t)
            if t not in ends:
                if not rel_at(n, s, sb):
                    report["(71)"].append(("a", n, c, cb))
            # (b)/(c) fire only when the end lands strictly inside
            # the other configuration's domain (open ends excluded)
            if t == c.e and cb.interval.contains(t) and c not in G.truncated:
                succs = G.succ(c)
                for c2 in succs:
                    if not rel_at(n, _state_closed(c2, t), sb):
                        report["(71)"].append(("b.1", n, c, cb, c2))
                if succs and all(_state_closed(c2, t) != s for c2 in succs):
                    if rel_at(n, s, sb):
                        report["(71)"].append(("b.2", n, c, cb))
                if not succs and not rel_at(n, s, sb):
                    report["(71)"].append(("b.3", n, c, cb))
            if t == cb.e and c.interval.contains(t) and cb not in Gb.truncated:
                succs = Gb.succ(cb)
                for cb2 in succs:
                    if not rel_at(n, s, _state_closed(cb2, t)):
                        report["(71)"].append(("c.1", n, c, cb, cb2))
                if succs and all(_state_closed(cb2, t) != sb for cb2 in succs):
                    if rel_at(n, s, sb):
                        report["(71)"].append(("c.2", n, c, cb))
                if not succs and not rel_at(n, s, sb):
                    report["(71)"].append(("c.3", n, c, cb))
    report["ok"] = not any(report[k] for k in ("(68)", "(69)", "(70)", "(71)"))
    return report


def _step_demands(d1: DiscreteTransitionSystem, d2: DiscreteTransitionSystem, s, sb):
    """Each step s -> s2 of d1 with its answers (s2, sb2), sb -> sb2 in d2."""
    return [(s2, {(s2, sb2) for sb2 in d2.succ(sb)}) for s2 in d1.succ(s)]


def milner_sim_check(R: frozenset, d1: DiscreteTransitionSystem, d2: DiscreteTransitionSystem):
    """R^-1 o t1 included in t2 o R^-1: every step of a pair's concrete
    state has an answer in R.  Returns (ok, witness or None)."""
    for s, sb in R:
        for s2, answers in _step_demands(d1, d2, s, sb):
            if answers.isdisjoint(R):
                return False, (s, sb, s2)
    return True, None


def greatest_discrete_simulation(
    d1: DiscreteTransitionSystem, d2: DiscreteTransitionSystem, start: Optional[frozenset] = None
) -> frozenset:
    """Greatest simulation inside the full (or given) pair set."""
    if start is None:
        start = {(u, v) for u in d1.states for v in d2.states}
    return frozenset(greatest_fixpoint(
        start, lambda p: [answers for _, answers in _step_demands(d1, d2, *p)]
    ))
