"""Asynchronous and synchronous hybrid simulation, greatest simulation,
the constructive trajectory matcher, composition, bisimulation, and
preservation with progress.

The central operation splices a configuration with its successor to a
common time window:  c $ c' <m1,m2>  with  m1 = min(b(c'), b(cbar')),
m2 = min(e(c'), e(cbar')).  An empty-successor placeholder means "the
other side stays in its current configuration"; its window is the
stepping side's successor interval, admissible only when that interval
ends within the staying side's current configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Optional

from .errors import (
    HybridSemError,
    LocalSimulationGap,
    MissingIntermediateWitness,
    NoInitialWitness,
    NotSliceClosed,
    NotWellNested,
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
    overlapping,
    pieces,
)
from .hts import semantics_generate
from .relation import (
    TimedStateRelation,
    config_related,
    forall_window_related,
    traj_related_rankwise,
    traj_related_timewise,
)
from .time_core import INF, Q, TimeInterval, interval_intersect, is_finite, tmin
from .trajectory import Trajectory, trajectory_validate

__all__ = [
    "ConfigGraph",
    "SimReport",
    "config_graph",
    "system_graph",
    "splice",
    "canonical_key",
    "normalize_config",
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


@dataclass(frozen=True)
class ConfigGraph:
    """Finite configuration universe with successor structure."""

    initial: tuple
    succ_map: tuple  # (config, tuple of successors)
    truncated: frozenset = frozenset()  # horizon artifacts, status unknown

    def configs(self) -> tuple:
        return tuple(c for c, _ in self.succ_map)

    @cached_property
    def _succ(self) -> dict:
        return dict(self.succ_map)

    def succ(self, c) -> tuple:
        return self._succ.get(c, ())

    def blocking(self, c) -> bool:
        return not self.succ(c) and c not in self.truncated


def config_graph(semantics) -> ConfigGraph:
    """Successor structure observed in a generated semantics."""
    succ: dict = {}
    initial = []
    truncated = set()
    for s in semantics.trajectories:
        for i, c in enumerate(s.configs):
            succ.setdefault(c, set())
            if i == 0 and c not in initial:
                initial.append(c)
            if i + 1 < len(s.configs):
                succ[c].add(s.configs[i + 1])
        if s.truncated:
            truncated.add(s.configs[-1])
    items = tuple(sorted(
        ((c, tuple(sorted(v, key=repr))) for c, v in succ.items()), key=lambda kv: repr(kv[0])
    ))
    return ConfigGraph(tuple(initial), items, frozenset(truncated))


def system_graph(h_or_graph, horizon=None) -> ConfigGraph:
    """The configuration graph of a system generated up to the horizon
    (unbounded when None); a ConfigGraph is returned as it is."""
    if isinstance(h_or_graph, ConfigGraph):
        return h_or_graph
    return config_graph(semantics_generate(h_or_graph, INF if horizon is None else horizon))


@dataclass
class SimReport:
    verdict: bool
    violations: list = field(default_factory=list)  # (c, cbar, c_prime, reason)
    hypothesis_results: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

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
    """(c $ c_next)<m1, m2>; returns None for an empty window."""
    if m2 <= m1:
        return None
    cat = config_concat(c, c_next) if not is_empty(c_next) else c
    closed = cat.interval.closed_hi and cat.interval.hi == m2
    try:
        return config_slice(cat, m1, m2, closed=closed)
    except HybridSemError:
        return None


def canonical_key(c):
    """Structural key identifying a configuration up to piece merging."""
    pieces = normalize_config(c)
    out = []
    for p in pieces:
        out.append(
            (
                p.flow.mode,
                p.interval.lo,
                p.interval.hi,
                p.interval.closed_hi,
                p.flow.reanchored(p.interval.lo).initial,
                p.flow.rate,
            )
        )
    return tuple(out)


def normalize_config(c) -> tuple:
    """Pieces of c with affinely-continuing neighbors merged."""
    ps = pieces(c)
    merged = [ps[0]]
    for p in ps[1:]:
        prev = merged[-1]
        same_flow = (
            prev.flow.mode == p.flow.mode
            and prev.flow.rate == p.flow.rate
            and prev.flow.state_at(p.b) == p.flow.state_at(p.b)
        )
        if same_flow and prev.e == p.b and not prev.interval.closed_hi:
            merged[-1] = Configuration(
                prev.flow, TimeInterval(prev.b, p.e, p.interval.closed_hi)
            )
        else:
            merged.append(p)
    return tuple(merged)


def sim_transfer(related: Callable, succ_abstract, c, cbar, c_prime) -> list:
    """Candidate abstract responses to the concrete step c -> c_prime.

    `related` is the configuration-level relation (e.g. gamma of a timed
    relation); `succ_abstract` yields the abstract successors of cbar.
    Returns (cbar_prime or EPSILON, spliced_concrete, spliced_abstract)
    triples whose spliced pair is related.
    """
    candidates = []
    # the abstract side stays in cbar (empty successor placeholder)
    if c_prime is not EPSILON and c_prime.e <= cbar.e:
        sc = splice(c, c_prime, c_prime.b, c_prime.e)
        sa = splice(cbar, EPSILON, c_prime.b, c_prime.e)
        if sc is not None and sa is not None and related(sc, sa):
            candidates.append((EPSILON, sc, sa))
    for cbar_prime in succ_abstract(cbar):
        if c_prime is EPSILON:
            if cbar_prime.e <= c.e:
                sc = splice(c, EPSILON, cbar_prime.b, cbar_prime.e)
                sa = splice(cbar, cbar_prime, cbar_prime.b, cbar_prime.e)
                if sc is not None and sa is not None and related(sc, sa):
                    candidates.append((cbar_prime, sc, sa))
            continue
        m1 = tmin(c_prime.b, cbar_prime.b)
        m2 = tmin(c_prime.e, cbar_prime.e)
        sc = splice(c, c_prime, m1, m2)
        sa = splice(cbar, cbar_prime, m1, m2)
        if sc is not None and sa is not None and related(sc, sa):
            candidates.append((cbar_prime, sc, sa))
    return candidates


def _related_pairs(related: Callable, G: ConfigGraph, Gb: ConfigGraph) -> list:
    """Related pairs; `related` must be false off-overlap, so only
    overlapping pairs are tried."""
    return [(c, cb) for c, cb, _ in overlapping(G.configs(), Gb.configs()) if related(c, cb)]


def _universe_guard(G: ConfigGraph, Gb: ConfigGraph):
    n = len(G.succ_map) * len(Gb.succ_map)
    if n > MAX_UNIVERSE * MAX_UNIVERSE:
        raise UniverseTooLarge(f"{n} candidate pairs")


def configs_well_nested(G: ConfigGraph, Gb: ConfigGraph):
    """(59) at the configuration level: overlap implies containment of
    the concrete interval in the abstract one.  Returns (ok, witness)."""
    for c, cb, _ in overlapping(G.configs(), Gb.configs()):
        if not c.interval.subset_of(cb.interval):
            return False, (c, cb)
    return True, None


def sim_check(
    r: TimedStateRelation,
    G: ConfigGraph,
    Gb: ConfigGraph,
    mode: str = "async",
) -> SimReport:
    """Simulation check of gamma(r) over the finite universes.

    async mode checks the general asynchronous condition for every
    related pair; sync mode uses the simplified well-nested form and
    refuses if the universes are not well-nested.
    """
    _universe_guard(G, Gb)
    related = lambda c, d: config_related(r, c, d)
    report = SimReport(True)
    if mode == "sync":
        nested, witness = configs_well_nested(G, Gb)
        if not nested:
            raise SyncRequiresWellNesting(f"overlap without nesting at {witness!r}")
    violations = []
    pairs = _related_pairs(related, G, Gb)
    for c, cb in pairs:
        for c_prime in G.succ(c):
            if mode == "sync":
                ok = _sync_step_ok(related, Gb, c_prime, cb)
            else:
                ok = bool(sim_transfer(related, Gb.succ, c, cb, c_prime))
            if not ok:
                violations.append((c, cb, c_prime, "no abstract response"))
    # hypotheses
    init_ok, init_w = True, None
    for c0 in G.initial:
        if not any(related(c0, cb0) for cb0 in Gb.initial):
            init_ok, init_w = False, c0
            break
    blocking_ok, blocking_w = True, None
    for c, cb in pairs:
        if c in G.truncated:
            continue  # horizon artifact: blocking status unknown
        if G.blocking(c) and (Gb.succ(cb) or cb in Gb.truncated):
            if Gb.succ(cb):
                blocking_ok, blocking_w = False, (c, cb)
                break
    nested_ok, nested_w = configs_well_nested(G, Gb)
    report.hypothesis_results = {
        "init(56)": (init_ok, init_w),
        "blocking(57)": (blocking_ok, blocking_w),
        "well_nested(59)": (nested_ok, nested_w),
    }
    report.violations = violations
    report.verdict = not violations
    if G.truncated or Gb.truncated:
        report.notes.append("horizon-bounded verdict: universes are truncated prefixes")
    return report


def _sync_step_ok(related, Gb: ConfigGraph, c_prime, cb) -> bool:
    """(52): the concrete successor against the sliced abstract side."""
    if c_prime.e <= cb.e:
        sa = splice(cb, EPSILON, c_prime.b, c_prime.e)
        if sa is not None and related(c_prime, sa):
            return True
    for cb_prime in Gb.succ(cb):
        m2 = tmin(c_prime.e, cb_prime.e)
        sa = splice(cb, cb_prime, c_prime.b, m2)
        if sa is not None:
            sc = splice(c_prime, EPSILON, c_prime.b, m2)
            if sc is not None and related(sc, sa):
                return True
    return False


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
    related: Optional[Callable] = None,
) -> set:
    """Greatest fixpoint of R -> R cap F_s(R) over slice-closed
    universes, starting from all overlapping pairs (optionally
    intersected with a configuration relation).  Each concrete step
    demands a sim_transfer response, which stands for the starting pairs
    with its canonical keys; a response outside the universes raises
    NotSliceClosed."""
    universe_c, universe_a = list(universe_c), list(universe_a)
    key_c, key_a = (
        {c: canonical_key(c) for c in sorted(slice_closure(own, _cut_points(other)), key=repr)}
        for own, other in ((universe_c, universe_a), (universe_a, universe_c))
    )
    keys_c, keys_a = set(key_c.values()), set(key_a.values())
    start = [
        (c, a)
        for c, a, _ in overlapping(list(key_c), list(key_a))
        if related is None or related(c, a)
    ]
    by_key: dict = {}
    for c, a in start:
        by_key.setdefault((key_c[c], key_a[a]), []).append((c, a))

    def pairs_of(sc, sa) -> list:
        kc, ka = canonical_key(sc), canonical_key(sa)
        if kc not in keys_c or ka not in keys_a:
            raise NotSliceClosed(f"splice {sc!r}/{sa!r} leaves the universe")
        return by_key.get((kc, ka), [])

    def demands(pair):
        c, a = pair
        for c_prime in succ_c(c):
            responses = sim_transfer(lambda *_: True, succ_a, c, a, c_prime)
            yield {q for _, sc, sa in responses for q in pairs_of(sc, sa)}

    return greatest_fixpoint(start, demands)


def theorem4_match(
    r: TimedStateRelation,
    sigma: Trajectory,
    Gb: ConfigGraph,
    max_steps: int = 10000,
):
    """Constructive matcher: build an abstract trajectory related to
    sigma, following the inductive case analysis of the simulation
    transfer (extend the abstract side while it lags, step both when
    the windows align, keep the abstract when it already covers the
    concrete successor).  Returns (abstract Trajectory, certification).
    """
    related = lambda c, d: config_related(r, c, d)
    first = sigma.configs[0]
    # initialization witness, tie-break: least end time then canonical order
    witnesses = [cb for cb in Gb.initial if related(first, cb)]
    if not witnesses:
        raise NoInitialWitness("no related abstract initial configuration")
    abstract = [min(witnesses, key=_end_order)]
    j = 0
    steps = 0
    while j + 1 < len(sigma.configs) and steps < max_steps:
        steps += 1
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
    while steps < max_steps:
        steps += 1
        cb = abstract[-1]
        nexts = [n for n in Gb.succ(cb) if n.b < sigma.duration]
        if not nexts or cb.e >= sigma.duration:
            break
        chosen = min(
            (n for n in nexts if related_overlap(related, sigma, n)),
            key=_end_order,
            default=None,
        )
        if chosen is None:
            break
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


def related_overlap(related: Callable, sigma: Trajectory, cb) -> bool:
    return any(related(c, cb) for c, _, _ in overlapping(sigma.configs, (cb,)))


def well_nested_check(T: Iterable, Tb: Iterable):
    """(59) over trajectory sets; returns (ok, witness)."""
    for s in T:
        for sb in Tb:
            for c, cb, _ in overlapping(s.configs, sb.configs):
                if not c.interval.subset_of(cb.interval):
                    return False, (s, sb, s.configs.index(c), sb.configs.index(cb))
    return True, None


def compose_check(
    r1: TimedStateRelation,
    r2: TimedStateRelation,
    T: Iterable,
    witness1: dict,
    witness2: dict,
):
    """Theorem-5 style composition: certify each concrete trajectory
    against the top level through the intermediate witness trajectory.

    witness1 maps each member of T to its intermediate trajectory,
    witness2 maps intermediates to top-level trajectories.  Returns
    (ok, failures, observations); observations record windows where the
    intermediate relation forced values at the top level (reported for
    inspection, not as errors).
    """
    failures = []
    observations = []
    for s in T:
        if s not in witness1:
            raise MissingIntermediateWitness(repr(s))
        mid = witness1[s]
        if mid not in witness2:
            raise MissingIntermediateWitness(repr(mid))
        top = witness2[mid]
        m = tmin(s.duration, top.duration)
        bound = TimeInterval(Q(0), m, False) if is_finite(m) else TimeInterval(Q(0), INF, False)
        for c, cmid, w1 in overlapping(s.configs, mid.configs):
            w1 = interval_intersect(w1, bound)
            if w1 is None:
                continue
            for ctop in top.configs:
                w = interval_intersect(w1, ctop.interval)
                if w is None:
                    continue
                for cp, mp, lower in overlapping(pieces(c), pieces(cmid)):
                    lower = interval_intersect(lower, w)
                    if lower is None:
                        continue
                    for _, tp, upper in overlapping((mp,), pieces(ctop)):
                        ww = interval_intersect(lower, upper)
                        if ww is None:
                            continue
                        ok1 = forall_window_related(r1, c, cmid, ww)
                        ok2 = forall_window_related(r2, cmid, ctop, ww)
                        if not (ok1 and ok2):
                            failures.append((s, c, cmid, ctop, ww, ok1, ok2))
                        elif cp.flow.mode == "off":
                            observations.append((s, ww, cp, tp))
    return (not failures), failures, observations


def relation_inverse(r: TimedStateRelation) -> TimedStateRelation:
    """Swap the concrete and abstract sides of a static clause relation."""
    from .affine import AffineConstraint, LinExpr
    from .relation import Clause

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
    """(73): a simulation in both directions."""
    fwd = sim_check(r, G, Gb, mode="async")
    rinv = relation_inverse(r)
    bwd = sim_check(rinv, Gb, G, mode="async")
    report = SimReport(fwd.verdict and bwd.verdict)
    report.violations = fwd.violations + [
        (c, cb, cp, "backward: " + reason) for c, cb, cp, reason in bwd.violations
    ]
    report.hypothesis_results = {
        "forward": (fwd.verdict, None),
        "backward": (bwd.verdict, None),
        **fwd.hypothesis_results,
    }
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
    for c, cb in _related_pairs(related, G, Gb):
        for c_prime in G.succ(c):
            for cb_prime in Gb.succ(cb):
                m1 = tmin(c_prime.b, cb_prime.b)
                m2 = tmin(c_prime.e, cb_prime.e)
                sc, sa = splice(c, c_prime, m1, m2), splice(cb, cb_prime, m1, m2)
                if sc is None or sa is None:
                    continue
                if not related(sc, sa):
                    violations.append((c, cb, c_prime, f"{cb_prime!r} not preserved"))
            # abstract stays (empty successor placeholder)
            if c_prime.e <= cb.e:
                sc = splice(c, c_prime, c_prime.b, c_prime.e)
                sa = splice(cb, EPSILON, c_prime.b, c_prime.e)
                if sc is not None and sa is not None and not related(sc, sa):
                    violations.append((c, cb, c_prime, "abstract stay not preserved"))
        for cb_prime in Gb.succ(cb):
            if cb_prime.e <= c.e:
                sc = splice(c, EPSILON, cb_prime.b, cb_prime.e)
                sa = splice(cb, cb_prime, cb_prime.b, cb_prime.e)
                if sc is not None and sa is not None and not related(sc, sa):
                    violations.append((c, cb, EPSILON, f"{cb_prime!r} not preserved"))
        if G.succ(c) and not Gb.succ(cb) and cb not in Gb.truncated:
            progress_ok, progress_w = False, (c, cb)
    init_ok, init_w = True, None
    for c0 in G.initial:
        if not any(related(c0, cb0) for cb0 in Gb.initial):
            init_ok, init_w = False, c0
            break
    report.violations = violations
    report.verdict = not violations
    report.hypothesis_results = {
        "init(56)": (init_ok, init_w),
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
