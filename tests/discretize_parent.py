"""discretize.py as it was before its grid side was decided in
integers: the reference of test_grid_ints.py.

The functions below are the earlier ones verbatim, with the
DiscreteTransitionSystem they built and read.  The unchanged helpers
(TimefulState and grid_alignment_check) and everything outside
discretize.py come from the library; each configuration graph is read
by value, through simulation_parent.by_value.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from hybridsem.discretize import TimefulState, grid_alignment_check
from hybridsem.errors import DomainGapAtGridPoint, Misaligned, NonConsecutiveEdge, TruncatedInput
from hybridsem.flow_config import UNDEFINED, PiecewiseConfiguration, State, overlapping, pieces
from hybridsem.hts import maximal_paths, semantics_generate
from hybridsem.relation import TimedStateRelation, exists_window_related, related_candidates
from hybridsem.simulation import config_graph
from hybridsem.time_core import Q, TimeInterval, is_finite
from hybridsem.trajectory import Trajectory, grid_step

from simulation_parent import by_value


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


def timeful_sample(s: Trajectory, delta, horizon=None) -> tuple:
    """Rank-annotated samples at n*delta strictly below the duration
    (matching the published trace sets; the final closed-end state is
    produced only by the closing transition rule, not by sampling).

    Each sample is the state of the first configuration holding n*delta,
    UNDEFINED where none does, as trajectory_eval gives it; one pointer
    walks the configurations in time order, passing each once the grid
    is beyond its end."""
    delta = grid_step(delta)
    dur = s.duration
    if not is_finite(dur) or (horizon is not None and Q(horizon) < dur):
        dur = Q(horizon) if horizon is not None else None
        if dur is None:
            raise TruncatedInput("unbounded trajectory needs an explicit horizon")
    configs, k = s.configs, 0
    out = []
    n = 0
    while n * delta < dur:
        t = n * delta
        while k < len(configs) and _ends_before(configs[k].interval, t):
            k += 1
        j = k
        while j < len(configs) and not configs[j].interval.contains(t):
            j += 1
        out.append(TimefulState(configs[j].state_at(t) if j < len(configs) else UNDEFINED, n))
        n += 1
    return tuple(out)


def _ends_before(interval, t) -> bool:
    """The interval holds no time at or after t."""
    return interval.hi < t or (interval.hi == t and not interval.closed_hi)


def _state_closed(c, t) -> State:
    """State at t with the configuration's interval taken closed (the
    value a right-open configuration approaches at its end)."""
    ps = pieces(c)
    for p in ps:
        if p.interval.contains(t):
            return p.flow.state_at(t)
    return ps[-1].flow.state_at(t)


def grid_states(c, delta, hcap) -> dict:
    """{rank n: <state of c at n*delta, n>} for the ranks of
    _grid_points(c, delta, hcap), each state the one _state_closed
    gives, in rank order.  A plain configuration evaluates its first
    point as rate*t + offset per variable and adds the exact rate*delta
    at each later point; a piecewise one is evaluated point by point."""
    hi = c.e if is_finite(c.e) else hcap
    if hi is None:
        raise TruncatedInput(f"unbounded {c!r} needs an explicit horizon")
    if hcap is not None:
        hi = min(hi, hcap)
    first = c.b / delta
    first = int(first) + (0 if first.denominator == 1 else 1)
    ranks = range(first, math.floor(hi / delta) + 1)
    if isinstance(c, PiecewiseConfiguration):
        return {n: TimefulState(_state_closed(c, n * delta), n) for n in ranks}
    out = {}
    mode, lines = c.flow.mode, c.flow.lines
    names = [k for k, _ in lines]
    steps = [rate * delta for _, (rate, _) in lines]
    t = first * delta
    values = [rate * t + offset for _, (rate, offset) in lines]
    for n in ranks:
        out[n] = TimefulState(State(mode, tuple(zip(names, values))), n)
        values = [v + step for v, step in zip(values, steps)]
    return out


def relation_discretize(
    r: TimedStateRelation,
    delta,
    d1: DiscreteTransitionSystem,
    d2: DiscreteTransitionSystem,
    extra_abstract: tuple = (),
) -> frozenset:
    """Rank-preserving pairs related by r at the sample time; refuses
    when r has a domain gap at an inhabited grid point.  extra_abstract
    admits abstract candidates that the sampled system never reaches.
    r is compiled once over every abstract state (related_candidates)."""
    delta = Q(delta)
    by_rank: dict = {}
    for v in d2.states | set(extra_abstract):
        by_rank.setdefault(v.rank, []).append(v)
    for n in sorted({u.rank for u in d1.states} | set(by_rank)):
        if not r.in_domain(n * delta):
            raise DomainGapAtGridPoint(f"rank {n} (t={n * delta})")
    related_at = related_candidates(r, {v.state for vs in by_rank.values() for v in vs})
    pairs = set()
    for u in d1.states:
        vs = by_rank.get(u.rank)
        if vs:
            related = related_at(u.rank * delta, u.state)
            pairs.update((u, v) for v in vs if v.state in related)
    return frozenset(pairs)


def hts_discretize(h_or_graph, delta, horizon=None) -> DiscreteTransitionSystem:
    """Transition rules: (a) internal steps strictly inside a
    configuration, (b) the last step jumps to the successor's first
    state, (c) a successor-free configuration closes onto its own final
    state (marked as a closing edge), (d) initial states at rank 0."""
    delta = grid_step(delta)
    G = config_graph(h_or_graph, horizon)
    ok, witness = grid_alignment_check(G, delta)
    if not ok:
        raise Misaligned(repr(witness))
    G = by_value(G)
    hcap = Q(horizon) if horizon is not None else None
    tables, at = _grid_tables(G.configs(), delta, hcap)
    edges, closing, from_tau = set(), set(), set()
    states = set()
    for c in G.configs():
        # (a) internal steps between consecutive ranks; the end rank of a
        # configuration that ends within the horizon belongs to (b)/(c)
        inner = list(tables[c].values())
        ends = is_finite(c.e) and (hcap is None or c.e <= hcap)
        if ends:
            inner.pop()
        for u, v in zip(inner, inner[1:]):
            edges.add((u, v))
            states.update((u, v))
        if not ends:
            continue
        n_end = int(c.e / delta)
        u = at(c, n_end - 1)
        succs = G.succ(c)
        if succs:
            for c2 in succs:  # (b)
                v = at(c2, n_end)
                edges.add((u, v))
                from_tau.add((u, v))
                states.update((u, v))
        elif c not in G.truncated:  # (c)
            v = at(c, n_end)
            edges.add((u, v))
            closing.add((u, v))
            states.update((u, v))
        else:
            states.add(u)
    initial = set()
    for c in G.initial:  # (d)
        u = at(c, int(c.b / delta))
        initial.add(u)
        states.add(u)
    return DiscreteTransitionSystem(
        frozenset(states), frozenset(initial), frozenset(edges),
        frozenset(closing), frozenset(from_tau),
    )


def discrete_traces(
    d: DiscreteTransitionSystem, include_closing: bool = False, max_rank: Optional[int] = None
) -> frozenset:
    """Maximal rank-annotated traces from the initial states."""
    usable = d.edges if include_closing else d.edges - d.closing
    adj = _adjacency((a, b) for a, b in usable if max_rank is None or b.rank <= max_rank)
    return frozenset(maximal_paths(d.initial, adj))


def theorem6_check(h, delta, horizon):
    """Dual computation: sample the generated trajectories vs generate
    the discretized system.  Returns (ok, diff, notes)."""
    delta = Q(delta)
    sem = semantics_generate(h, horizon)
    lhs = frozenset(timeful_sample(s, delta, horizon) for s in sem.trajectories)
    d = hts_discretize(h, delta, horizon)
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


def _adjacency(edges) -> dict:
    """Successor lists of each source of an edge set."""
    adj: dict = {}
    for a, b in edges:
        adj.setdefault(a, []).append(b)
    return adj


_NO_RANKS: dict = {}


def _grid_tables(configs, delta, hcap):
    """One grid_states table per distinct configuration of `configs`,
    and at(c, n), <state of c at n*delta, n>: read from the tables, or
    evaluated by _state_closed at a rank or configuration outside them
    (a successor entered off its own start, say)."""
    tables: dict = {}
    for c in configs:
        if c not in tables:
            tables[c] = grid_states(c, delta, hcap)

    def at(c, n) -> TimefulState:
        u = tables.get(c, _NO_RANKS).get(n)
        return u if u is not None else TimefulState(_state_closed(c, n * delta), n)

    return tables, at


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
    universes; violations carry the sub-case label and a witness.

    Every grid state is evaluated once: one grid_states table per
    configuration of both graphs (one set of tables when they are the
    same graph) feeds the abstract-state table, (68), (69) and (71).

    (69) asks, at each concrete grid point (n, state s of c), whether r
    relates s to an abstract state that no abstract configuration
    reaches at rank n.  r is compiled once (relation.related_candidates)
    over every abstract grid state, in repr order; (69) reads it leaving
    out the states reached at rank n, and (71) asks it about single
    pairs.  An abstract state off every abstract grid (a successor not
    starting where its source ends) is no candidate and raises
    NonConsecutiveEdge.  A relation with B/E symbols is refused with
    EndpointSymbolsUnbound, since a bare state pair binds none."""
    delta = grid_step(delta)
    hcap = Q(horizon) if horizon is not None else None
    G, Gb = config_graph(h, horizon), config_graph(hb, horizon)
    G, Gb = (by_value(G),) * 2 if Gb is G else (by_value(G), by_value(Gb))
    report = {"(68)": [], "(69)": [], "(70)": [], "(71)": []}

    tables, at = _grid_tables(
        G.configs() if Gb is G else (*G.configs(), *Gb.configs()), delta, hcap
    )
    # (68): r defined wherever some concrete configuration is inhabited
    for c in G.configs():
        for n in tables[c]:
            if not r.in_domain(n * delta):
                report["(68)"].append((n, c))
    # (69): related abstract states must come from reachable configurations
    abstract_states = {}
    for cb in Gb.configs():
        for n, ub in tables[cb].items():
            abstract_states.setdefault(n, set()).add(ub.state)
    known = set().union(*abstract_states.values())
    related_at = related_candidates(r, sorted(known, key=repr))

    def rel_at(n, s, sb) -> bool:
        related = sb in related_at(n * delta, s)
        if not (related or sb in known):
            raise NonConsecutiveEdge(f"(71): {sb!r} at rank {n} is on no abstract grid")
        return related

    for c in G.configs():
        for n, u in tables[c].items():
            for sb in related_at(n * delta, u.state, skip=abstract_states.get(n, ())):
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
        ends, abstract = {c.e, cb.e}, tables[cb]
        for n, u in tables[c].items():
            t = n * delta
            if not (cb.b <= t <= cb.e):
                continue
            s, sb = u.state, abstract[n].state
            if t not in ends:
                if not rel_at(n, s, sb):
                    report["(71)"].append(("a", n, c, cb))
            # (b)/(c) fire only when the end lands strictly inside
            # the other configuration's domain (open ends excluded)
            if t == c.e and cb.interval.contains(t) and c not in G.truncated:
                succs = G.succ(c)
                for c2 in succs:
                    if not rel_at(n, at(c2, n).state, sb):
                        report["(71)"].append(("b.1", n, c, cb, c2))
                if succs and all(at(c2, n).state != s for c2 in succs):
                    if rel_at(n, s, sb):
                        report["(71)"].append(("b.2", n, c, cb))
                if not succs and not rel_at(n, s, sb):
                    report["(71)"].append(("b.3", n, c, cb))
            if t == cb.e and c.interval.contains(t) and cb not in Gb.truncated:
                succs = Gb.succ(cb)
                for cb2 in succs:
                    if not rel_at(n, s, at(cb2, n).state):
                        report["(71)"].append(("c.1", n, c, cb, cb2))
                if succs and all(at(cb2, n).state != sb for cb2 in succs):
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
