"""Timeful discretization of trajectories, relations, and transition
systems, with the soundness hypotheses and the Milner-style check on
the discretized side.

Discrete states carry their sample rank so that a constant flow does
not collapse into a spurious cycle.  Trajectory sampling
(trajectory.timeful_sample) keeps the ranks n with n*delta strictly
below the duration; the transition rules additionally emit a marked
"closing" edge to the final state of a successor-free configuration,
and semantics-level comparisons exclude those closing edges so that
both computations return the same trace sets (the residual asymmetry
between the two conventions is reported by theorem6_check, never
silently patched).

The grid side runs in integers.  With delta = p/q a configuration's
value at rank n is (R*n*p + O*q)/(L*q) from its int_lines, an integer
numerator over D, the lcm of every L*q.  A _Grid interns each state by
its mode and numerators into a dense id, so equal states share an id
with no Fraction built.  The discretized systems, (68)-(71), the
discretized relation, the Milner check and theorem 6's trace sets are
keyed by ids and (rank, id) nodes, and r is read on the grid
(_on_grid) so that related_candidates decides it in integers.  States
are built once per id, for what leaves the grid.

Each public function builds its own grid.  hts_discretize,
discretization_hypotheses, relation_discretize and milner_sim_check
also take one: on it they work in its nodes, so theorem6_check builds
one grid and theorem7_check one grid for all four steps, compiling r
once.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cached_property
from typing import Optional

from .affine import AffineConstraint, LinExpr
from .errors import DomainGapAtGridPoint, Misaligned, NonConsecutiveEdge, TruncatedInput
from .flow_config import UNDEFINED, PiecewiseConfiguration, State, overlap_ids, pieces
from .records import record
from .relation import Clause, TimedStateRelation, exists_window_related, related_candidates
from .hts import NO_TRAJECTORY, maximal_paths, reach, semantics_generate
from .simulation import greatest_fixpoint, system_graph
from .time_core import INF, Q, TimeInterval, is_finite, rank_of, rank_range
from .trajectory import TimefulState, _ranks, grid_step, timeful_sample, timeless_sample

__all__ = [
    "DiscreteTransitionSystem",
    "grid_alignment_check",
    "grid_states",
    "relation_discretize",
    "hts_discretize",
    "timeless_discretize",
    "discrete_traces",
    "theorem6_check",
    "timeless_overapprox_demo",
    "discretization_hypotheses",
    "milner_sim_check",
    "theorem7_check",
    "greatest_discrete_simulation",
]


@record(frozen=True)
class DiscreteTransitionSystem:
    states: frozenset
    initial: frozenset
    edges: frozenset  # (TimefulState, TimefulState), or _Node keys of a
    # grid; the rank increments by 1
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
        return _adjacency(self.edges)

    def succ(self, u) -> tuple:
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


# a discrete state on a grid: its rank and the id of its state
_Node = namedtuple("_Node", "rank id")


def _over(v, D):
    """v*D: an integer, or a Fraction for a value off the grid."""
    f, r = divmod(D, v.denominator)
    return v.numerator * f if r == 0 else v * D


class _Grid:
    """The states of one discretization interned as dense ids, each
    value a numerator over D, the lcm of delta's q and of every L*q of
    the configurations' int_lines.  tables[c] is {rank n: id of c's
    state at n*delta} over c's closed interval, up to `cap`, the last
    rank in the horizon; ints[i] is state i with numerators for values.
    The ids of the tables of `configs` are the `known` states, those of
    `more` and any interned later come after them."""

    def __init__(self, configs, delta, hcap=None, more=()):
        self.delta, self.p, self.q = delta, delta.numerator, delta.denominator
        self.cap = INF if hcap is None else _ranks(TimeInterval(Q(0), hcap, True), delta).hi
        self.D = math.lcm(self.q, *(L * self.q for c in (*configs, *more) for piece in pieces(c)
                                    for _, (_, _, L) in piece.flow.int_lines))
        self.ints: list = []
        self._ids: dict = {}
        self._states: dict = {}
        self._timeful: dict = {}
        self._relations: dict = {}
        self.tables: dict = {}
        self._tabulate(configs)
        self.known = len(self.ints)
        self._tabulate(more)

    def _tabulate(self, configs) -> None:
        for c in configs:
            if c not in self.tables:
                self.tables[c] = self._table(c)

    def _intern(self, mode, values) -> int:
        i = self._ids.get((mode, values))
        if i is None:
            i = self._ids[mode, values] = len(self.ints)
            self.ints.append(State(mode, values))
        return i

    def _table(self, c) -> dict:
        first, last = rank_range(TimeInterval(c.b, c.e, True), self.p, self.q)
        last = min(last, self.cap)
        if last is INF:
            raise TruncatedInput(f"unbounded {c!r} needs an explicit horizon")
        return {n: self.at(c, n) for n in range(first, last + 1)}

    def at(self, c, n) -> int:
        """The id of _state_closed(c, n*delta), numerators over D of the
        flow holding rank n: a plain c's own, with no n*delta built."""
        flow = (_closed_piece(c, n * self.delta) if isinstance(c, PiecewiseConfiguration)
                else c).flow
        p, q, D = self.p, self.q, self.D
        return self._intern(flow.mode, tuple((k, (R * n * p + O * q) * (D // (L * q)))
                                             for k, (R, O, L) in flow.int_lines))

    def key(self, u) -> _Node:
        """u's node, its state interned by value; UNDEFINED has id -1."""
        s = u.state
        if s is UNDEFINED:
            return _Node(u.rank, -1)
        D = self.D
        return _Node(u.rank, self._intern(s.mode, tuple((k, _over(v, D)) for k, v in s.vars)))

    def state(self, i) -> State:
        s = self._states.get(i)
        if s is None:
            x = self.ints[i]
            s = self._states[i] = State(x.mode, tuple((k, Q(v, self.D)) for k, v in x.vars))
        return s

    def node(self, k: _Node) -> TimefulState:
        u = self._timeful.get(k)
        if u is None:
            u = self._timeful[k] = TimefulState(self.state(k.id), k.rank)
        return u

    def related(self, r: TimedStateRelation, upto: int) -> tuple:
        """(related, r on the grid), r compiled once by related_candidates
        over the states of ids below upto: related(n, i, skip) lists those
        ids outside skip whose states r relates to state i at rank n.
        When no clause can raise (B/E symbols, `dynamic`), each (n, i) is
        decided once and skip filters that."""
        entry = self._relations.get((r, upto))
        if entry is None:
            on_grid = _on_grid(r, self.D, self.delta)
            ints, ids = self.ints, self._ids
            at = related_candidates(on_grid, ints[:upto])

            def id_of(x) -> int:
                return ids[x.mode, x.vars]

            decided: dict = {}
            raises = any(cl.uses_endpoints() for cl in r.clauses)

            def related(n, i, skip=frozenset()):
                if raises:
                    return [id_of(x) for x in at(n, ints[i], {ints[j] for j in skip})]
                hits = decided.get((n, i))
                if hits is None:
                    hits = decided[n, i] = tuple(id_of(x) for x in at(n, ints[i]))
                return [j for j in hits if j not in skip] if skip else hits

            entry = self._relations[r, upto] = (related, on_grid)
        return entry


def _pair_grid(G, Gb, delta, hcap) -> _Grid:
    """The grid of G's and Gb's configurations whose known states are
    Gb's, the abstract candidates of (69) and of the discretized
    relation."""
    return _Grid(Gb.configs(), delta, hcap, more=() if G is Gb else G.configs())


def _on_grid(r: TimedStateRelation, D: int, delta) -> TimedStateRelation:
    """r over numerators and ranks: with a = A/D, c = C/D and t = n*p/q,
    a constraint times m*D*q (m its coefficients' lcm denominator) has
    integer coefficients.  Windows and dom(r) become ranks; a clause
    with B/E symbols or a `dynamic` part, which raises, is kept."""
    p, q = delta.numerator, delta.denominator

    def scaled(con: AffineConstraint) -> AffineConstraint:
        lhs = con.lhs
        m = math.lcm(lhs.const.denominator, *(v.denominator for _, v in lhs.coefs))
        coefs = tuple((k, v.numerator * (m // v.denominator) * (D * p if k == "t" else q))
                      for k, v in lhs.coefs)
        const = lhs.const.numerator * (m // lhs.const.denominator) * D * q
        return AffineConstraint(LinExpr(coefs, const), con.op)

    clauses = tuple(
        Clause(cl.constraints if cl.uses_endpoints() else tuple(map(scaled, cl.constraints)),
               None if cl.window is None else _ranks(cl.window, delta),
               cl.concrete_mode, cl.abstract_mode, cl.dynamic)
        for cl in r.clauses
    )
    domain = None if r.domain is None else tuple(_ranks(w, delta) for w in r.domain)
    return TimedStateRelation(clauses, domain)


def grid_alignment_check(h_or_graph, delta, horizon=None):
    """Every configuration must start and end on the grid; returns
    (ok, witness configuration or None)."""
    delta = grid_step(delta)
    p, q = delta.numerator, delta.denominator
    G = system_graph(h_or_graph, horizon)
    for c in G.configs():
        if rank_of(c.b, p, q) is None or is_finite(c.e) and rank_of(c.e, p, q) is None:
            return False, c
    return True, None


def _closed_piece(c, t):
    """The piece of c holding t, c's interval taken closed: its last
    piece past its end."""
    ps = pieces(c)
    return next((p for p in ps if p.interval.contains(t)), ps[-1])


def _state_closed(c, t) -> State:
    """State at t with the configuration's interval taken closed (the
    value a right-open configuration approaches at its end)."""
    return _closed_piece(c, t).flow.state_at(t)


def grid_states(c, delta, hcap) -> dict:
    """{rank n: <state of c at n*delta, n>} for the ranks of
    _grid_points(c, delta, hcap), each state the one _state_closed
    gives, in rank order: c's table on its own grid."""
    grid = _Grid((c,), delta, hcap)
    return {n: grid.node(_Node(n, i)) for n, i in grid.tables[c].items()}


def relation_discretize(
    r: TimedStateRelation,
    delta,
    d1: DiscreteTransitionSystem,
    d2: DiscreteTransitionSystem,
    extra_abstract: tuple = (),
    grid: Optional[_Grid] = None,
) -> frozenset:
    """Rank-preserving pairs related by r at the sample time; refuses
    when r has a domain gap at an inhabited grid point.  extra_abstract
    admits abstract candidates that the sampled system never reaches.
    An UNDEFINED state (id -1 on a grid) is related to nothing.

    The states are interned on a new grid, the candidates first, and the
    pairs are read from r compiled over the candidates.  On `grid` (the
    _pair_grid both systems were discretized on) d1 and d2 are keyed by
    its nodes, and so are the pairs returned; r, compiled over the
    grid's ids up to the last candidate (its known states at least), is
    read leaving out those that are no candidate, as if compiled over
    the candidates alone."""
    delta = Q(delta)
    keyed = grid is not None
    if keyed:
        concrete, abstract = d1.states, d2.states | {grid.key(v) for v in extra_abstract}
    else:
        grid = _Grid((), delta)
        abstract = {grid.key(v) for v in (*d2.states, *extra_abstract)}
        concrete = {grid.key(u) for u in d1.states}
    by_rank: dict = {}
    for v in abstract:
        by_rank.setdefault(v.rank, set()).add(v.id)
    upto = max(grid.known, max((v.id + 1 for v in abstract), default=0))
    related, on_grid = grid.related(r, upto)
    for n in sorted({u.rank for u in concrete} | set(by_rank)):
        if not on_grid.in_domain(n):
            raise DomainGapAtGridPoint(f"rank {n} (t={n * delta})")
    skip = set(range(upto)).difference(*by_rank.values())
    pairs = frozenset((u, _Node(u.rank, j)) for u in concrete if u.id >= 0 and u.rank in by_rank
                      for j in related(u.rank, u.id, skip) if j in by_rank[u.rank])
    if keyed:
        return pairs
    node = grid.node
    return frozenset((node(u), node(v)) for u, v in pairs)


def hts_discretize(
    h_or_graph, delta, horizon=None, grid: Optional[_Grid] = None
) -> DiscreteTransitionSystem:
    """Transition rules: (a) internal steps strictly inside a
    configuration, (b) the last step jumps to the successor's first
    state, (c) a successor-free configuration closes onto its own final
    state (marked as a closing edge), (d) initial states at rank 0.

    The rules run on the nodes of a grid of the graph's configurations.
    Given one (with the same delta and horizon), the system is returned
    keyed by its nodes; otherwise by TimefulStates."""
    delta = grid_step(delta)
    G = system_graph(h_or_graph, horizon)
    ok, witness = grid_alignment_check(G, delta)
    if not ok:
        raise Misaligned(repr(witness))
    keyed = grid is not None
    if not keyed:
        grid = _Grid(G.configs(), delta, Q(horizon) if horizon is not None else None)
    at, p, q = grid.at, grid.p, grid.q
    edges, closing, from_tau = set(), set(), set()
    states = set()
    for k, (c, succs) in enumerate(G.succ_map):
        # (a) internal steps between consecutive ranks; the end rank of a
        # configuration that ends within the horizon belongs to (b)/(c)
        inner = [_Node(n, i) for n, i in grid.tables[c].items()]
        n_end = rank_of(c.e, p, q)
        ends = n_end is not None and n_end <= grid.cap
        if ends:
            inner.pop()
        for u, v in zip(inner, inner[1:]):
            edges.add((u, v))
            states.update((u, v))
        if not ends:
            continue
        u = _Node(n_end - 1, at(c, n_end - 1))
        if succs:
            for c2 in succs:  # (b)
                v = _Node(n_end, at(c2, n_end))
                edges.add((u, v))
                from_tau.add((u, v))
                states.update((u, v))
        elif k not in G.cut:  # (c)
            v = _Node(n_end, at(c, n_end))
            edges.add((u, v))
            closing.add((u, v))
            states.update((u, v))
        else:
            states.add(u)
    initial = set()
    for c in G.initial:  # (d)
        n = rank_of(c.b, p, q)
        u = _Node(n, at(c, n))
        initial.add(u)
        states.add(u)
    if keyed:
        return DiscreteTransitionSystem(frozenset(states), frozenset(initial),
                                        frozenset(edges), frozenset(closing), frozenset(from_tau))
    node = grid.node
    pairs = [frozenset((node(u), node(v)) for u, v in keys) for keys in (edges, closing, from_tau)]
    return DiscreteTransitionSystem(frozenset(map(node, states)), frozenset(map(node, initial)),
                                    *pairs)


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
    return frozenset(maximal_paths(d.initial, adj))


def theorem6_check(h, delta, horizon):
    """Dual computation: sample the generated trajectories vs generate
    the discretized system, both from one reach of h, on the nodes of one
    grid: each sampled trace is keyed by the nodes of its states.
    Returns (ok, diff, notes); no trajectory fails, with a note."""
    delta = Q(delta)
    g = reach(h, horizon)
    sampled = [timeful_sample(s, delta, horizon)
               for s in semantics_generate(g, horizon).trajectories]
    G = system_graph(g)
    grid = _Grid(G.configs(), grid_step(delta), Q(horizon))
    d = hts_discretize(G, delta, horizon, grid)
    generated = discrete_traces(d, include_closing=False, max_rank=grid.cap)
    key = grid.key
    lhs = {tuple(map(key, t)): t for t in sampled}
    # strict-sampling vs closing-rule reconciliation: trim nothing on the
    # sampling side, exclude closing edges on the generation side, and
    # report what was excluded
    notes = []
    if d.closing:
        notes.append(
            f"{len(d.closing)} closing edge(s) excluded from trace generation "
            "to match the strict sampling convention"
        )
    if not sampled:
        notes.append(NO_TRAJECTORY)
    diff = {"only_sampled": frozenset(lhs[t] for t in lhs.keys() - generated),
            "only_generated": frozenset(tuple(map(grid.node, t)) for t in generated - lhs.keys())}
    return bool(sampled) and lhs.keys() == generated, diff, notes


def timeless_overapprox_demo(h, delta, horizon, max_len=4):
    """The rank-free discretization overapproximates: it may introduce
    cycles absent from the sampled traces.  Returns a report dict."""
    delta = Q(delta)
    sem = semantics_generate(h, horizon)
    sampled = frozenset(timeless_sample(s, delta, horizon) for s in sem.trajectories)
    initial, edges = timeless_discretize(h, delta, horizon)
    adj = _adjacency(edges)
    # a cycle exists iff some states each have a successor among them
    has_cycle = bool(greatest_fixpoint(adj, lambda u: [adj[u]]))
    generated = maximal_paths(initial, adj, max_len)
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


def _grid_points(c, delta, hcap):
    """Ranks n with n*delta in the closed interval of c (capped), one at
    a time: the reference that grid_states' ranks are tested against."""
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
    r: TimedStateRelation, h, hb, delta, horizon=None, grid: Optional[_Grid] = None
) -> dict:
    """Check the four soundness hypotheses over the reachable finite
    universes; violations carry the sub-case label and a witness.

    Every grid state is evaluated once, on the one grid of both graphs
    (`grid`, or their _pair_grid), whose ids feed the abstract states,
    (68), (69) and (71).

    (69) asks, at each concrete grid point (n, state s of c), whether r
    relates s to an abstract state that no abstract configuration
    reaches at rank n.  r is compiled once (_Grid.related) over every
    abstract grid state; (69) reads it leaving out the states reached
    at rank n, listing them in repr order, and (71) asks it about single
    pairs.  An abstract state off every abstract grid (a successor not
    starting where its source ends) is no candidate and raises
    NonConsecutiveEdge.  A relation with B/E symbols is refused with
    EndpointSymbolsUnbound, since a bare state pair binds none."""
    delta = grid_step(delta)
    hcap = Q(horizon) if horizon is not None else None
    G, Gb = system_graph(h, horizon), system_graph(hb, horizon)
    report = {"(68)": [], "(69)": [], "(70)": [], "(71)": []}

    if grid is None:
        grid = _pair_grid(G, Gb, delta, hcap)
    tables, known, p, q = grid.tables, grid.known, grid.p, grid.q
    related, on_grid = grid.related(r, known)
    xs, ys = G.configs(), Gb.configs()
    reached: dict = {}
    for cb in ys:
        for n, j in tables[cb].items():
            reached.setdefault(n, set()).add(j)
    for c in xs:
        for n, i in tables[c].items():
            # (68): r defined wherever some concrete configuration is inhabited
            if not on_grid.in_domain(n):
                report["(68)"].append((n, c))
            # (69): related abstract states must come from reachable configurations
            hits = related(n, i, reached.get(n, frozenset()))
            report["(69)"].extend((n, c, sb) for sb in sorted(map(grid.state, hits), key=repr))

    def rel_at(n, i, j) -> bool:
        if j in related(n, i):
            return True
        if j >= known:
            raise NonConsecutiveEdge(f"(71): {grid.state(j)!r} at rank {n} is on no abstract grid")
        return False

    for x, y, w in overlap_ids(xs, ys):
        c, cb = xs[x], ys[y]
        if not _exists_related(r, c, cb, w, hcap):
            continue
        succs, succs_b = G.succ_map[x][1], Gb.succ_map[y][1]
        # (70): blocking abstract configurations end with the concrete one
        if not succs_b and y not in Gb.cut and cb.e != c.e:
            report["(70)"].append((c, cb))
        # (71): compatibility of r with the boundary transition rules
        abstract, c_end, cb_end = tables[cb], rank_of(c.e, p, q), rank_of(cb.e, p, q)
        for n, i in tables[c].items():
            j = abstract.get(n)
            if j is None:  # n*delta outside [b(cb), e(cb)]
                continue
            if n != c_end and n != cb_end:
                if not rel_at(n, i, j):
                    report["(71)"].append(("a", n, c, cb))
            # (b)/(c) fire only when the end lands strictly inside
            # the other configuration's domain (open ends excluded)
            if n == c_end and cb.interval.contains(c.e) and x not in G.cut:
                for c2 in succs:
                    if not rel_at(n, grid.at(c2, n), j):
                        report["(71)"].append(("b.1", n, c, cb, c2))
                if succs and all(grid.at(c2, n) != i for c2 in succs):
                    if rel_at(n, i, j):
                        report["(71)"].append(("b.2", n, c, cb))
                if not succs and not rel_at(n, i, j):
                    report["(71)"].append(("b.3", n, c, cb))
            if n == cb_end and c.interval.contains(cb.e) and y not in Gb.cut:
                for cb2 in succs_b:
                    if not rel_at(n, i, grid.at(cb2, n)):
                        report["(71)"].append(("c.1", n, c, cb, cb2))
                if succs_b and all(grid.at(cb2, n) != j for cb2 in succs_b):
                    if rel_at(n, i, j):
                        report["(71)"].append(("c.2", n, c, cb))
                if not succs_b and not rel_at(n, i, j):
                    report["(71)"].append(("c.3", n, c, cb))
    report["ok"] = not any(report[k] for k in ("(68)", "(69)", "(70)", "(71)"))
    return report


def _step_demands(d1: DiscreteTransitionSystem, d2: DiscreteTransitionSystem, s, sb):
    """Each step s -> s2 of d1 with its answers (s2, sb2), sb -> sb2 in d2."""
    answers = d2.succ(sb)
    return [(s2, {(s2, sb2) for sb2 in answers}) for s2 in d1.succ(s)]


def milner_sim_check(
    R: frozenset, d1: DiscreteTransitionSystem, d2: DiscreteTransitionSystem,
    grid: Optional[_Grid] = None,
):
    """R^-1 o t1 included in t2 o R^-1: every step of a pair's concrete
    state has an answer in R.  Returns (ok, witness or None); the
    witness is the failing (s, sb, s2) of least rank, then reprs, so no
    set order chooses it.  On `grid`, R and the systems are keyed by its
    nodes, and the witness is given in TimefulStates."""
    failing = []
    for s, sb in sorted(R, key=lambda pair: pair[0].rank):
        if failing and s.rank > failing[0][0].rank:
            break
        failing += [(s, sb, s2) for s2, answers in _step_demands(d1, d2, s, sb)
                    if answers.isdisjoint(R)]
    if not failing:
        return True, None
    if grid is not None:
        failing = [tuple(map(grid.node, w)) for w in failing]
    return False, failing[0] if len(failing) == 1 else min(
        failing, key=lambda w: tuple(map(repr, w)))


def theorem7_check(r: TimedStateRelation, h, hb, delta, horizon=None, extra_abstract=()):
    """Theorem 7 on one grid: the hypotheses (68)-(71), the
    discretization of each distinct side, the discretized relation and
    the Milner check, all on the _pair_grid of the two graphs, so each
    grid state is evaluated and r compiled once.  Returns (hypotheses
    report, Milner verdict, witness or None)."""
    delta = grid_step(delta)
    G = system_graph(h, horizon)
    Gb = G if hb is h else system_graph(hb, horizon)
    grid = _pair_grid(G, Gb, delta, Q(horizon) if horizon is not None else None)
    hyp = discretization_hypotheses(r, G, Gb, delta, horizon, grid)
    d1 = hts_discretize(G, delta, horizon, grid)
    d2 = d1 if Gb is G else hts_discretize(Gb, delta, horizon, grid)
    R = relation_discretize(r, delta, d1, d2, extra_abstract, grid)
    return (hyp, *milner_sim_check(R, d1, d2, grid))


def greatest_discrete_simulation(
    d1: DiscreteTransitionSystem, d2: DiscreteTransitionSystem, start: Optional[frozenset] = None
) -> frozenset:
    """Greatest simulation inside the full (or given) pair set."""
    if start is None:
        start = {(u, v) for u in d1.states for v in d2.states}
    return frozenset(greatest_fixpoint(
        start, lambda p: [answers for _, answers in _step_demands(d1, d2, *p)]
    ))
