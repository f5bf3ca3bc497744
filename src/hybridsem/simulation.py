"""Asynchronous and synchronous hybrid simulation, greatest simulation,
the constructive trajectory matcher, composition, bisimulation, and
preservation with progress.

The central operation splices a configuration with its successor to a
common time window:  c $ c' <m1,m2>  with  m1 = min(b(c'), b(cbar')),
m2 = min(e(c'), e(cbar')).  An empty-successor placeholder means "the
other side stays in its current configuration"; its window is the
stepping side's successor interval, admissible only when that interval
ends within the staying side's current configuration.  `_responses`
enumerates these splices for every check: the synchronous simulation
(52) is the asynchronous one on the well-nested universes (59) it
requires, so both decide each step by `sim_transfer`.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Iterable, Optional

from .affine import AffineConstraint, LinExpr
from .errors import (
    EmptyIntersection,
    HybridSemError,
    LocalSimulationGap,
    MissingIntermediateWitness,
    NoInitialWitness,
    PremiseFailed,
    SyncRequiresWellNesting,
    UniverseTooLarge,
)
from .flow_config import (
    Configuration,
    EPSILON,
    config_concat,
    config_slice,
    is_empty,
    overlap_ids,
    overlapping,
    pieces,
)
from .hts import Reached, reach
from .records import factory, record
from .relation import (
    Clause,
    TimedStateRelation,
    _endpoint_env,
    _forall_window_related,
    _piece_windows,
    config_related,
    traj_related_rankwise,
    traj_related_timewise,
)
from .time_core import INF, Q, TimeInterval, earlier, interval_intersect, is_finite, tmin
from .trajectory import Trajectory, trajectory_validate

__all__ = [
    "ConfigGraph",
    "SimReport",
    "config_graph",
    "splice",
    "canonical_key",
    "sim_transfer",
    "sim_check",
    "greatest_fixpoint",
    "greatest_simulation",
    "slice_closure",
    "theorem4_match",
    "well_nested_check",
    "compose_check",
    "bisim_check",
    "preservation_check",
    "verify_by_simulation",
    "relation_inverse",
]

MAX_UNIVERSE = 4000
MAX_STEPS = 10000


@record(frozen=True)
class ConfigGraph:
    """Finite configuration universe with successor structure.  The id of
    a configuration is its position in succ_map, where checks read it;
    every initial configuration is listed there."""

    initial: tuple
    succ_map: tuple  # (config, tuple of successors), each config listed once
    truncated: frozenset = frozenset()  # horizon artifacts, status unknown

    def configs(self) -> tuple:
        return tuple(c for c, _ in self.succ_map)

    @cached_property
    def _succ(self) -> dict:
        return dict(self.succ_map)

    def succ(self, c) -> tuple:
        return self._succ.get(c, ())

    @cached_property
    def cut(self) -> frozenset:
        """The ids of the truncated configurations."""
        return frozenset(i for i, (c, _) in enumerate(self.succ_map) if c in self.truncated)

    @cached_property
    def initial_ids(self) -> tuple:
        """The id of each initial configuration, in the order of initial."""
        return tuple(map(self.configs().index, self.initial))


def _graph(nodes, succ, initial, truncated) -> ConfigGraph:
    """ConfigGraph of the configurations nodes[k] with successor ids
    succ[k], initial and truncated ones given by id: listed by repr, and
    the successors of each, ties in id order."""
    reprs, truncated, initial = [repr(c) for c in nodes], set(truncated), dict.fromkeys(initial)
    by_repr = lambda ks: sorted(dict.fromkeys(ks), key=reprs.__getitem__)
    order = by_repr(range(len(nodes)))
    g = ConfigGraph(tuple(nodes[k] for k in initial),
                    tuple((nodes[k], tuple(nodes[m] for m in by_repr(succ[k]))) for k in order),
                    frozenset(nodes[k] for k in truncated))
    # the ids are known here, so the cached `cut` and `initial_ids` need
    # hash or compare no configuration
    g.__dict__["cut"] = frozenset(i for i, k in enumerate(order) if k in truncated)
    g.__dict__["initial_ids"] = tuple(map(order.index, initial))
    return g


def config_graph(source, horizon=None) -> ConfigGraph:
    """The configuration graph of a system reached up to the horizon
    (unbounded when None) by `hts.reach`, of what it reached, or of one
    trajectory.  A system's positions holding equal configurations are
    merged; a trajectory's positions are its indices, each stepping to
    the next, and hold distinct configurations (each starts where the one
    before ends), so none is hashed.  A ConfigGraph is returned as it is."""
    if isinstance(source, ConfigGraph):
        return source
    if isinstance(source, Trajectory):
        n = len(source.configs)
        return _graph(source.configs, [(k + 1,) for k in range(n - 1)] + [()], (0,),
                      (n - 1,) if source.truncated else ())
    g = source
    if not isinstance(g, Reached):
        g = reach(g, INF if horizon is None else horizon)
    ids: dict = {}
    node = {p: i if g.distinct else ids.setdefault(c, len(ids))
            for i, (p, c) in enumerate(g.config.items())}
    nodes = list(g.config.values()) if g.distinct else list(ids)
    succ = [[] for _ in nodes]
    for p, nexts in g.succ.items():
        succ[node[p]] += (node[q] for q in nexts)
    return _graph(nodes, succ, (node[p] for p in g.initial), (node[p] for p in g.truncated))


@record()
class SimReport:
    verdict: bool
    violations: list = factory(list)  # (c, cbar, c_prime, reason)
    hypothesis_results: dict = factory(dict)
    notes: list = factory(list)
    # the check's pair table: each overlapping id pair of its two graphs,
    # in overlap_ids order, to gamma(r)'s verdict; not reported by
    # to_dict, and empty on bisim_check's combined report
    pairs: dict = factory(dict, init=False)

    def to_dict(self):
        return {
            "verdict": self.verdict,
            "violations": [
                {"c": repr(c), "cbar": repr(cb), "c_prime": repr(cp), "reason": reason}
                for c, cb, cp, reason in self.violations
            ],
            "hypotheses": {
                k: {"ok": ok, "witness": repr(w)}
                for k, (ok, w) in self.hypothesis_results.items()
            },
            "notes": list(self.notes),
        }


def splice(c, c_next, m1, m2):
    """(c $ c_next)<m1, m2>; returns None for an empty window or an empty
    slice.  m1 is finite, m2 finite or INF.  c $ c_next is c_next from
    b(c_next) on, so a window starting there slices c_next alone."""
    if not earlier(m1, m2):
        return None
    if is_empty(c_next):
        cat = c
    elif earlier(m1, c_next.b):
        cat = config_concat(c, c_next)
    else:
        cat = c_next
    closed = cat.interval.closed_hi and cat.interval.hi == m2
    try:
        return config_slice(cat, m1, m2, closed=closed)
    except EmptyIntersection:
        return None


def canonical_key(c):
    """Structural key identifying a configuration up to piece merging:
    its pieces, with neighbours that continue one flow merged."""
    ps = pieces(c)
    merged = [ps[0]]
    for p in ps[1:]:
        prev = merged[-1]
        if prev.flow == p.flow and prev.e == p.b and not prev.interval.closed_hi:
            merged[-1] = Configuration(prev.flow, TimeInterval(prev.b, p.e, p.interval.closed_hi))
        else:
            merged.append(p)
    return tuple(merged)


def _responses(succ_abstract, c, cbar, c_prime):
    """The abstract responses to the concrete step c -> c_prime, as
    (cbar_prime or EPSILON, spliced concrete, spliced abstract) triples
    with both splices nonempty: first each abstract step, then the stay
    in cbar (empty successor placeholder) when c_prime ends within it.
    For c_prime EPSILON (the concrete side stays in c), the abstract
    steps that end within c."""
    for cbar_prime in succ_abstract(cbar):
        if c_prime is EPSILON:
            if earlier(c.e, cbar_prime.e):
                continue
            m1, m2 = cbar_prime.b, cbar_prime.e
        else:
            m1, m2 = tmin(c_prime.b, cbar_prime.b), tmin(c_prime.e, cbar_prime.e)
        sc, sa = splice(c, c_prime, m1, m2), splice(cbar, cbar_prime, m1, m2)
        if sc is not None and sa is not None:
            yield cbar_prime, sc, sa
    if c_prime is not EPSILON and not earlier(cbar.e, c_prime.e):
        sc = splice(c, c_prime, c_prime.b, c_prime.e)
        sa = splice(cbar, EPSILON, c_prime.b, c_prime.e)
        if sc is not None and sa is not None:
            yield EPSILON, sc, sa


def sim_transfer(related: Callable, succ_abstract, c, cbar, c_prime) -> list:
    """Candidate abstract responses to the concrete step c -> c_prime:
    the triples of _responses whose spliced pair is related.  `related`
    is the configuration-level relation (e.g. gamma of a timed
    relation); `succ_abstract` yields the abstract successors of cbar."""
    return [resp for resp in _responses(succ_abstract, c, cbar, c_prime) if related(*resp[1:])]


def _related_pairs(r: TimedStateRelation, xs, ys, overlaps, report: SimReport) -> list:
    """The id pairs of `overlaps` (from `overlap_ids(xs, ys)`) related by
    gamma(r), each decided on the overlap already found; `report.pairs`
    keeps every verdict as the check's pair table."""
    table = report.pairs = {(i, j): config_related(r, xs[i], ys[j], w) for i, j, w in overlaps}
    return [ij for ij, held in table.items() if held]


def _universe_guard(G: ConfigGraph, Gb: ConfigGraph):
    n = len(G.succ_map) * len(Gb.succ_map)
    if n > MAX_UNIVERSE * MAX_UNIVERSE:
        raise UniverseTooLarge(f"{n} candidate pairs")


def _nested(xs, ys, overlaps):
    """(59) on the pairs of `overlaps` (from `overlap_ids(xs, ys)`):
    overlap implies containment of the concrete interval in the abstract
    one.  Returns the first (i, j) where it fails, or None."""
    return next(((i, j) for i, j, _ in overlaps if not xs[i].interval.subset_of(ys[j].interval)),
                None)


def _initialized(pairs: dict, G: ConfigGraph, Gb: ConfigGraph):
    """init(56): every concrete initial configuration is related to some
    abstract initial one.  Returns (ok, witness).  `pairs` is the check's
    pair table: every overlapping pair was decided, and a pair that does
    not overlap is related by nothing.  With no concrete initial
    configuration it fails: every check would hold vacuously."""
    if not G.initial:
        return False, None
    for c0, i in zip(G.initial, G.initial_ids):
        if not any(pairs.get((i, j)) for j in Gb.initial_ids):
            return False, c0
    return True, None


def sim_check(
    r: TimedStateRelation,
    G: ConfigGraph,
    Gb: ConfigGraph,
    mode: str = "async",
) -> SimReport:
    """Simulation check of gamma(r) over the finite universes: every
    concrete step of a related pair needs a sim_transfer response.  Mode
    "sync", the synchronous check (52), first refuses universes that fail
    (59) with SyncRequiresWellNesting; "async" is the general check.

    One step rule serves both, given that every edge joins consecutive
    configurations, as in every graph `config_graph` builds (of a system
    or of a trajectory) and in the gallery's.  Well-nested, a related (c, cbar) has e(c) <= e(cbar), so the
    window of a step c -> c' starts at b(c') (c' starts at e(c), each
    abstract successor at e(cbar)), c adds nothing from there on, and the
    responses are (52)'s two cases: c' against cbar cut to c', and c' cut
    to m2 against (cbar $ cbar') cut to [b(c'), m2)."""
    if mode not in ("async", "sync"):
        raise ValueError(f"unknown mode {mode!r}")
    _universe_guard(G, Gb)
    related = lambda c, d: config_related(r, c, d)
    report = SimReport(True)
    xs, ys = G.configs(), Gb.configs()
    overlaps = overlap_ids(xs, ys)
    bad = _nested(xs, ys, overlaps)
    nested_w = bad and (xs[bad[0]], ys[bad[1]])
    if mode == "sync" and bad:
        raise SyncRequiresWellNesting(f"overlap without nesting at {nested_w!r}")
    violations = []
    pairs = _related_pairs(r, xs, ys, overlaps, report)
    for i, j in pairs:
        c, cb, after = xs[i], ys[j], Gb.succ_map[j][1]
        for c_prime in G.succ_map[i][1]:
            if not sim_transfer(related, lambda _: after, c, cb, c_prime):
                violations.append((c, cb, c_prime, "no abstract response"))
    # hypotheses; a truncated c is a horizon artifact, never blocking
    blocking_w = next(((xs[i], ys[j]) for i, j in pairs if not G.succ_map[i][1]
                       and i not in G.cut and Gb.succ_map[j][1]), None)
    report.hypothesis_results = {
        "init(56)": _initialized(report.pairs, G, Gb),
        "blocking(57)": (blocking_w is None, blocking_w),
        "well_nested(59)": (bad is None, nested_w),
    }
    report.violations = violations
    report.verdict = not violations
    if G.truncated or Gb.truncated:
        report.notes.append("horizon-bounded verdict: universes are truncated prefixes")
    return report


def slice_closure(configs: Iterable, extra_points: Iterable = ()) -> set:
    """Close a configuration set under slicing at the union of all
    interval endpoints (the universe used by fixpoint computations).

    extra_points adds cut times from a partner universe so that splices
    against it stay inside the closure."""
    configs = list(configs)
    points = sorted(_cut_points(configs) | set(extra_points))
    out = set(configs)
    for c in configs:
        for i, t1 in enumerate(points):
            for t2 in points[i + 1:]:
                if c.b <= t1 and t2 <= c.e:
                    closings = (False, True) if c.interval.closed_hi and t2 == c.e else (False,)
                    for closed in closings:
                        try:
                            out.add(config_slice(c, t1, t2, closed=closed))
                        except HybridSemError:
                            pass
    return out


def _cut_points(configs) -> set:
    """Start times and finite end times of configs."""
    return {c.b for c in configs} | {c.e for c in configs if is_finite(c.e)}


def greatest_fixpoint(start: Iterable, demands: Callable) -> set:
    """Largest R within start in which every pair meets each of its
    demands: demands(p) yields sets of pairs, each of which must meet R.

    Worklist refinement after Henzinger, Henzinger & Kopke (FOCS 1995):
    each demand keeps its members still in R, and a pair leaves R when
    one of its demands runs empty."""
    R = set(start)
    met_by: dict = {}  # pair -> (owner, demand) for each demand it is in
    dead = []
    for p in R:
        for d in demands(p):
            d = R.intersection(d)
            if not d:
                dead.append(p)
            for q in d:
                met_by.setdefault(q, []).append((p, d))
    while dead:
        p = dead.pop()
        if p in R:
            R.remove(p)
            for q, d in met_by.get(p, ()):
                d.discard(p)
                if not d:
                    dead.append(q)
    return R


def greatest_simulation(
    universe_c: Iterable,
    universe_a: Iterable,
    succ_c: Callable,
    succ_a: Callable,
    related: Callable,
) -> set:
    """Greatest fixpoint of R -> R cap F_s(R) on the demand closure of the
    overlapping pairs of the given universes intersected with a
    configuration relation, returned on its pairs of given ones.  Each
    concrete step demands a sim_transfer response, interned by canonical
    keys: the given pairs with its keys, or else one pair of its own (on
    the given configurations with those keys, if any), decided once and
    given its demands in turn.  A slice or splice that is no given
    configuration has no successor, so no response leaves the closure;
    past MAX_UNIVERSE pairs in it, UniverseTooLarge is raised."""
    cs, as_ = list(universe_c), list(universe_a)
    key_c, key_a = [canonical_key(c) for c in cs], [canonical_key(a) for a in as_]
    # each key's given configuration, the first where several share one
    own_c, own_a = (dict(zip(ks[::-1], xs[::-1])) for ks, xs in ((key_c, cs), (key_a, as_)))
    pairs: list = []  # id -> (c, a), the related pairs of the closure
    by_key: dict = {}  # (canonical key, canonical key) -> ids of its related pairs

    def add(key, c, a) -> list:
        ids = by_key.setdefault(key, [])
        if related(c, a):
            if len(pairs) == MAX_UNIVERSE:
                raise UniverseTooLarge(f"demand closure past {MAX_UNIVERSE} pairs")
            ids.append(len(pairs))
            pairs.append((c, a))
        return ids

    for i, j, _ in overlap_ids(cs, as_):
        add((key_c[i], key_a[j]), cs[i], as_[j])
    given = len(pairs)

    def pairs_of(sc, sa) -> list:
        key = (canonical_key(sc), canonical_key(sa))
        ids = by_key.get(key)
        return ids if ids is not None else add(key, own_c.get(key[0], sc), own_a.get(key[1], sa))

    demands = []  # pairs grows as its demands are built, so every pair gets them
    for c, a in pairs:
        demands.append([{q for _, sc, sa in sim_transfer(lambda *_: True, succ_a, c, a, c_prime)
                         for q in pairs_of(sc, sa)} for c_prime in succ_c(c)])
    return {pairs[p] for p in greatest_fixpoint(range(len(pairs)), demands.__getitem__)
            if p < given}


def theorem4_match(
    r: TimedStateRelation,
    sigma: Trajectory,
    Gb: ConfigGraph,
):
    """Constructive matcher: build an abstract trajectory related to
    sigma, following the inductive case analysis of the simulation
    transfer (extend the abstract side while it lags, step both when
    the windows align, keep the abstract when it already covers the
    concrete successor).  Returns (abstract Trajectory, certification).
    A match that needs more than MAX_STEPS steps raises UniverseTooLarge
    rather than certify a prefix.
    """
    related = lambda c, d: config_related(r, c, d)
    first = sigma.configs[0]
    # initialization witness, tie-break: least end time then canonical order
    witnesses = [cb for cb in Gb.initial if related(first, cb)]
    if not witnesses:
        raise NoInitialWitness("no related abstract initial configuration")
    abstract = [min(witnesses, key=_end_order)]
    budget = iter(range(MAX_STEPS))

    def step():
        if next(budget, None) is None:
            raise UniverseTooLarge(f"trajectory match past {MAX_STEPS} steps")

    j = 0
    while j + 1 < len(sigma.configs):
        step()
        c, c_prime = sigma.configs[j], sigma.configs[j + 1]
        cb = abstract[-1]
        cands = sim_transfer(related, Gb.succ, c, cb, c_prime)
        if not cands:
            raise LocalSimulationGap(
                f"no abstract response for {c!r} -> {c_prime!r} against {cb!r}"
            )
        # staying first, then the least end
        responses = [resp for resp, _, _ in cands]
        cb_prime = EPSILON if EPSILON in responses else min(responses, key=_end_order)
        if is_empty(cb_prime):
            j += 1  # abstract already covers the concrete step
        elif cb_prime.e <= c.e:
            abstract.append(cb_prime)  # abstract lags: extend it only
        else:
            abstract.append(cb_prime)
            j += 1
    # termination: extend the abstract side while it ends before sigma does
    while True:
        cb = abstract[-1]
        nexts = [n for n in Gb.succ(cb) if n.b < sigma.duration]
        if not nexts or cb.e >= sigma.duration:
            break
        chosen = min(
            (n for n in nexts
             if any(related(c, n) for c, _, _ in overlapping(sigma.configs, (n,)))),
            key=_end_order,
            default=None,
        )
        if chosen is None:
            break
        step()
        abstract.append(chosen)
    truncated = not (
        abstract[-1].interval.closed_hi or not is_finite(abstract[-1].e)
    )
    sbar = trajectory_validate(abstract, truncated=truncated)
    cert = {
        "timewise": traj_related_timewise(r, sigma, sbar),
        "rankwise": traj_related_rankwise(r, sigma, sbar),
    }
    return sbar, cert


def _end_order(c) -> tuple:
    """Least end first, unbounded ends last, then canonical order."""
    return (not is_finite(c.e), c.e if is_finite(c.e) else 0, repr(c))


def well_nested_check(T: Iterable, Tb: Iterable):
    """(59) over trajectory sets, by _nested on each trajectory pair;
    returns (ok, witness (s, sb, i, j)), i and j configuration ranks."""
    for s in T:
        for sb in Tb:
            bad = _nested(s.configs, sb.configs, overlap_ids(s.configs, sb.configs))
            if bad:
                return False, (s, sb, *bad)
    return True, None


def compose_check(
    r1: TimedStateRelation,
    r2: TimedStateRelation,
    T: Iterable,
    mids: Iterable,
    tops: Iterable,
    known1: Optional[Iterable] = None,
):
    """Theorem-5 style composition: certify each concrete trajectory
    against the top level through the intermediate witness trajectory.

    mids holds the intermediate trajectory of each member of T, and tops
    the top-level trajectory of each intermediate, in the order of T; a
    length that differs from T's raises MissingIntermediateWitness.
    known1, when given, holds for each member of T a table from position
    pairs (in its configurations, in its intermediate's) to gamma(r1)'s
    verdict on their whole overlap.  A pair it relates holds r1 at every
    time of their overlap, so each of its windows holds for r1 without a
    decision; a window that is the whole overlap of a pair it refutes
    fails r1 without a decision; any other pair is decided window by
    window.
    Returns (ok, failures, certified); certified lists every window where
    both relations hold as (s, window, concrete piece, top-level piece).
    """
    T, mids, tops = list(T), list(mids), list(tops)
    if not len(T) == len(mids) == len(tops):
        raise MissingIntermediateWitness(f"{len(T)}, {len(mids)} and {len(tops)} trajectories")
    failures = []
    certified = []
    knowns = [{}] * len(T) if known1 is None else known1
    for s, mid, top, known in zip(T, mids, tops, knowns, strict=True):
        bound = TimeInterval(Q(0), tmin(s.duration, top.duration), False)
        for k, m, overlap in overlap_ids(s.configs, mid.configs):
            w1 = interval_intersect(overlap, bound)
            if w1 is None:
                continue
            c, cmid = s.configs[k], mid.configs[m]
            verdict1 = known.get((k, m))  # None: decided window by window
            # the whole overlap of a pair gamma(r1) refuted fails r1
            failed1 = overlap if verdict1 is False else None
            env1 = _endpoint_env(c, cmid)
            for ctop in top.configs:
                w = interval_intersect(w1, ctop.interval)
                if w is None:
                    continue
                env2 = _endpoint_env(cmid, ctop)
                for cp, mp, lower in _piece_windows(c, cmid, w):
                    for _, tp, ww in _piece_windows(mp, ctop, lower):
                        # pieces are disjoint, so (cp, mp) and (mp, tp) are
                        # the only piece pairs of the whole configurations
                        # that meet ww
                        ok1 = verdict1 is True or (ww != failed1 and _forall_window_related(
                            r1, cp, mp, ww, env1))
                        ok2 = _forall_window_related(r2, mp, tp, ww, env2)
                        if not (ok1 and ok2):
                            failures.append((s, c, cmid, ctop, ww, ok1, ok2))
                        else:
                            certified.append((s, ww, cp, tp))
    return (not failures), failures, certified


def relation_inverse(r: TimedStateRelation) -> TimedStateRelation:
    """Swap the concrete and abstract sides of a static clause relation."""
    def swap_symbol(sym: str) -> str:
        if sym.startswith("c_"):
            return "a_" + sym[2:]
        if sym.startswith("a_"):
            return "c_" + sym[2:]
        if sym.endswith("_c"):
            return sym[:-2] + "_a"
        if sym.endswith("_a"):
            return sym[:-2] + "_c"
        return sym

    clauses = []
    for cl in r.clauses:
        if getattr(cl, "dynamic", None):
            raise PremiseFailed("cannot invert a relation with dynamic clauses")
        cons = tuple(
            AffineConstraint(
                LinExpr.make({swap_symbol(k): v for k, v in con.lhs.coefs}, con.lhs.const),
                con.op,
            )
            for con in cl.constraints
        )
        clauses.append(Clause(cons, cl.window, cl.abstract_mode, cl.concrete_mode))
    return TimedStateRelation(tuple(clauses), r.domain)


def bisim_check(r: TimedStateRelation, G: ConfigGraph, Gb: ConfigGraph) -> SimReport:
    """(73): a simulation in both directions.  init(56) holds only when
    it holds both ways, its witness from the first direction where it
    fails; blocking(57) and well_nested(59) are the forward check's."""
    fwd = sim_check(r, G, Gb, mode="async")
    bwd = sim_check(relation_inverse(r), Gb, G, mode="async")
    init_fwd, init_bwd = (rep.hypothesis_results["init(56)"] for rep in (fwd, bwd))
    report = SimReport(fwd.verdict and bwd.verdict)
    report.violations = fwd.violations + [
        (c, cb, cp, "backward: " + reason) for c, cb, cp, reason in bwd.violations
    ]
    report.hypothesis_results = {
        "forward": (fwd.verdict, None),
        "backward": (bwd.verdict, None),
        **fwd.hypothesis_results,
        "init(56)": init_fwd if not init_fwd[0] else init_bwd,
    }
    report.notes = list(dict.fromkeys(fwd.notes + bwd.notes))  # each once, in order
    return report


def preservation_check(
    r: TimedStateRelation,
    G: ConfigGraph,
    Gb: ConfigGraph,
) -> SimReport:
    """(74) for-all-successors preservation, plus progress (76)."""
    _universe_guard(G, Gb)
    related = lambda c, d: config_related(r, c, d)
    report = SimReport(True)
    violations = []
    progress_ok, progress_w = True, None
    xs, ys = G.configs(), Gb.configs()
    for i, j in _related_pairs(r, xs, ys, overlap_ids(xs, ys), report):
        c, cb, after = xs[i], ys[j], Gb.succ_map[j][1]
        # EPSILON last: the concrete side stays while the abstract steps
        for c_prime in (*G.succ_map[i][1], EPSILON):
            for cb_prime, sc, sa in _responses(lambda _: after, c, cb, c_prime):
                if not related(sc, sa):
                    reason = "abstract stay" if cb_prime is EPSILON else repr(cb_prime)
                    violations.append((c, cb, c_prime, reason + " not preserved"))
        if G.succ_map[i][1] and not after and j not in Gb.cut:
            progress_ok, progress_w = False, (c, cb)
    report.violations = violations
    report.verdict = not violations
    report.hypothesis_results = {
        "init(56)": _initialized(report.pairs, G, Gb),
        "progress(76)": (progress_ok, progress_w),
    }
    report.notes.append(
        "theorem8: preservation and progress and init imply the simulation conclusion"
    )
    return report


def verify_by_simulation(
    r: TimedStateRelation,
    G: ConfigGraph,
    Gb: ConfigGraph,
    abstract_trajectories: Iterable,
    predicate: Callable,
) -> dict:
    """(62): conclude the concrete semantics satisfies the abstract
    property from a simulation plus initialization and blocking."""
    sim = sim_check(r, G, Gb, mode="async")
    audit = {"simulation": sim.verdict}
    init_ok, _ = sim.hypothesis_results["init(56)"]
    blocking_ok, _ = sim.hypothesis_results["blocking(57)"]
    audit["init(56)"] = init_ok
    audit["blocking(57)"] = blocking_ok
    bad = [sb for sb in abstract_trajectories if not predicate(sb)]
    audit["abstract_semantics_in_property"] = not bad
    for name in ("simulation", "init(56)", "blocking(57)", "abstract_semantics_in_property"):
        if not audit[name]:
            raise PremiseFailed(name)
    audit["conclusion"] = "concrete semantics related to the property by the lifted relation"
    return audit
