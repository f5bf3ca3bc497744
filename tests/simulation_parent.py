"""hts.reach and the simulation checks as they were before configurations
were interned into dense ids: the reference of test_dense_ids.py.

The functions below are the earlier ones verbatim, with the Reached and
ConfigGraph they built and read, and the Fraction successor step that
reach once used (a mode's lookup, `instantiate`, `admits`,
`duration_for` and an edge's `apply`, frozen here as functions), so
that this reach shares no step code with the library's integer one;
everything else (the system types, splice, sim_transfer, the fixpoint
engine, the window kernel) comes from the library, unchanged.
"""

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Optional

from hybridsem.errors import (
    FinalNotClosed,
    HybridSemError,
    NonConsecutiveEdge,
    ParamConstraintViolated,
    SyncRequiresWellNesting,
)
from hybridsem.affine import LinExpr
from hybridsem.flow_config import EPSILON, Configuration, make_config, overlapping
from hybridsem.hts import HybridTransitionSystem, Semantics, config_is_final, maximal_paths
from hybridsem.relation import TimedStateRelation, config_related
from hybridsem.simulation import (
    SimReport,
    _cut_points,
    _universe_guard,
    canonical_key,
    greatest_fixpoint,
    sim_transfer,
    slice_closure,
    splice,
)
from hybridsem.time_core import INF, Q, TimeInterval, exact, is_finite, tmin
from hybridsem.trajectory import trajectory_validate


class NotSliceClosed(HybridSemError):
    """A splice leaves the slice-closed universes (this reference only)."""


def schema(h: HybridTransitionSystem, mode):
    for s in h.schemas:
        if s.mode == mode:
            return s
    raise KeyError(mode)


def duration_for(exit, entry: dict, rates: dict):
    if exit.kind == "duration":
        return exit.value.eval(entry)
    rate = exact(rates.get(exit.var, 0))
    if rate == 0:
        return None
    return (exit.value.eval(entry) - exact(entry[exit.var])) / rate


def admits(s, entry_values: dict) -> bool:
    return all(c.holds(entry_values) for c in s.entry)


def instantiate(s, t0, entry_values: dict, zeta) -> Optional[Configuration]:
    """Configuration of mode schema s entered at t0 with the given
    variable values.

    Returns None when the entry constraints reject the state or the
    exit condition yields a duration below zeta.
    """
    if not admits(s, entry_values):
        return None
    rates = dict(s.rates)
    if s.exit is None:
        if not s.terminal:
            return None
        return make_config(s.mode, t0, INF, entry_values, rates)
    dur = duration_for(s.exit, entry_values, rates)
    if dur is None or dur < zeta:
        return None
    return make_config(s.mode, t0, exact(t0) + dur, entry_values, rates, closed_hi=s.terminal)


def apply(edge, exit_values: dict) -> dict:
    out = dict(exit_values)
    for var, expr in edge.reset:
        out[var] = expr.eval(exit_values) if isinstance(expr, LinExpr) else Q(expr)
    return out


def successors(h: HybridTransitionSystem, p) -> tuple:
    """The one successor step.  A position is an index into the explicit
    configurations (two indices may hold equal configurations), or a
    schema configuration itself.  A non-final explicit configuration
    without an edge, and a non-terminal schema configuration without an
    admissible successor, raise FinalNotClosed; an explicit edge to a
    configuration that does not start where its source ends raises
    NonConsecutiveEdge."""
    if h.explicit is not None:
        ex = h.explicit
        out = ex.succ[p]
        c = ex.configs[p]
        if not out and not config_is_final(c):
            raise FinalNotClosed(f"non-final configuration {c!r} has no successor")
        for q in out:
            if ex.configs[q].b != c.e:
                raise NonConsecutiveEdge(
                    f"edge {c!r} -> {ex.configs[q]!r}: the target does not start at the source's end"
                )
        return out
    if schema(h, p.flow.mode).terminal:
        return ()
    exit_values = p.flow.state_at(p.e).as_dict()
    out = []
    for edge in h.edges:
        if edge.src == p.flow.mode:
            nxt = instantiate(schema(h, edge.dst), p.e, apply(edge, exit_values), h.zeta)
            if nxt is not None:
                out.append(nxt)
    if not out:
        raise FinalNotClosed(f"non-terminal configuration {p!r} has no admissible successor")
    return tuple(out)


@dataclass(frozen=True)
class Reached:
    """Positions reached from the initial ones, with their successors
    (none at a leaf) and configurations (cut at the horizon)."""

    initial: tuple
    succ: dict
    config: dict
    truncated: frozenset  # leaves cut by the horizon or the depth bound
    horizon: object


def reach(h: HybridTransitionSystem, horizon, depth: int = 64) -> Reached:
    """Breadth-first worklist over positions.  A reached position is
    a leaf cut at the horizon when it ends after it, complete when final,
    cut at the horizon when it ends on it, and cut by depth when first
    reached at rank `depth`; otherwise its successors are reached.  A
    position starting at or after the horizon is not reached.  Following an
    edge out of a final explicit configuration, or ending a non-final one
    without an edge, raises FinalNotClosed, and following an edge whose
    target does not start at its source's end raises NonConsecutiveEdge,
    as `hts_validate` reports all three; such a configuration cut at the
    horizon (ending on it, say) or by depth is a leaf like any other."""
    horizon = Q(horizon) if is_finite(horizon) else INF
    if horizon < 0:
        raise ParamConstraintViolated(f"horizon {horizon} is negative")
    ex = h.explicit
    if ex is not None:
        starts, value = [i for i in ex.initial if ex.configs[i].b == 0], ex.configs.__getitem__
    else:
        starts = [instantiate(schema(h, m), Q(0), dict(v), h.zeta) for m, v in h.initial]
        starts, value = [c for c in starts if c is not None], (lambda c: c)
    bounded = is_finite(horizon)
    rank, config, succ, truncated = {}, {}, {}, set()
    queue = deque()

    def visit(p, n) -> bool:
        if p not in rank:
            c = value(p)
            if c.b >= horizon:
                return False
            rank[p], config[p] = n, c
            queue.append(p)
        return True

    initial = tuple(p for p in dict.fromkeys(starts) if visit(p, 1))
    while queue:
        p = queue.popleft()
        c = config[p]
        crosses = bounded and (not is_finite(c.e) or c.e > horizon)
        # an instantiated schema configuration is final iff its mode is terminal
        if config_is_final(c) and (ex is None or not ex.succ[p]) and not crosses:
            succ[p] = ()
        elif crosses or bounded and c.e >= horizon or rank[p] >= depth:
            # kept when it ends open by the horizon, else sliced to [b, horizon)
            if not (is_finite(c.e) and c.e <= horizon and not c.interval.closed_hi):
                config[p] = Configuration(c.flow, TimeInterval(c.b, horizon, False))
            truncated.add(p)
            succ[p] = ()
        else:
            if ex is not None and config_is_final(c):
                raise FinalNotClosed(f"edge out of final configuration {c!r}")
            nexts = dict.fromkeys(successors(h, p))
            succ[p] = tuple(q for q in nexts if visit(q, rank[p] + 1))
    return Reached(initial, succ, config, frozenset(truncated), horizon)


def semantics_generate(h: HybridTransitionSystem, horizon, depth: int = 64,
                       max_trajectories: int = 10000) -> Semantics:
    """Maximal trajectories up to the horizon and depth bound: the
    maximal paths of the reached positions.

    Trajectories still extendable at a bound are flagged truncated.
    Finite maximal trajectories end in a final configuration.
    """
    g = reach(h, horizon, depth)
    trajectories = frozenset(
        trajectory_validate(
            [g.config[p] for p in path],
            truncated=path[-1] in g.truncated or bool(g.succ[path[-1]]),
        )
        for path in maximal_paths(g.initial, g.succ, depth, max_trajectories)
    )
    return Semantics(trajectories, g.horizon, depth)



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


def _graph(initial, succ: dict, truncated) -> ConfigGraph:
    """ConfigGraph of successor sets, listed by repr."""
    items = tuple(sorted(
        ((c, tuple(sorted(v, key=repr))) for c, v in succ.items()), key=lambda kv: repr(kv[0])
    ))
    return ConfigGraph(tuple(dict.fromkeys(initial)), items, frozenset(truncated))


def config_graph(semantics) -> ConfigGraph:
    """Successor structure observed in given trajectories."""
    succ: dict = {}
    for s in semantics.trajectories:
        for i, c in enumerate(s.configs):
            succ.setdefault(c, set()).update(s.configs[i + 1 : i + 2])
    return _graph(
        (s.configs[0] for s in semantics.trajectories), succ,
        (s.configs[-1] for s in semantics.trajectories if s.truncated),
    )


def system_graph(h_or_graph, horizon=None) -> ConfigGraph:
    """The configuration graph of a system reached up to the horizon
    (unbounded when None) by `hts.reach`; positions holding equal
    configurations are merged.  A ConfigGraph is returned as it is."""
    if isinstance(h_or_graph, ConfigGraph):
        return h_or_graph
    g = reach(h_or_graph, INF if horizon is None else horizon)
    succ: dict = {}
    for p, nexts in g.succ.items():
        succ.setdefault(g.config[p], set()).update(g.config[q] for q in nexts)
    return _graph((g.config[p] for p in g.initial), succ, (g.config[p] for p in g.truncated))


def _initialized(related: Callable, G: ConfigGraph, Gb: ConfigGraph):
    """init(56): every concrete initial configuration is related to some
    abstract initial one.  Returns (ok, witness).  With no concrete
    initial configuration it fails: every check would hold vacuously."""
    if not G.initial:
        return False, None
    for c0 in G.initial:
        if not any(related(c0, cb0) for cb0 in Gb.initial):
            return False, c0
    return True, None


def _related_pairs(r: TimedStateRelation, overlaps) -> list:
    """The pairs of `overlaps` (from `overlapping`) related by gamma(r),
    each decided on the overlap already found."""
    return [(c, cb) for c, cb, w in overlaps if config_related(r, c, cb, w)]


def _nested(overlaps):
    """(59) on the pairs of `overlaps` (from `overlapping`): overlap
    implies containment of the concrete interval in the abstract one.
    Returns (ok, witness)."""
    for c, cb, _ in overlaps:
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
    overlaps = overlapping(G.configs(), Gb.configs())
    nested_ok, nested_w = _nested(overlaps)
    if mode == "sync" and not nested_ok:
        raise SyncRequiresWellNesting(f"overlap without nesting at {nested_w!r}")
    violations = []
    pairs = _related_pairs(r, overlaps)
    for c, cb in pairs:
        for c_prime in G.succ(c):
            if mode == "sync":
                ok = _sync_step_ok(related, Gb, c_prime, cb)
            else:
                ok = bool(sim_transfer(related, Gb.succ, c, cb, c_prime))
            if not ok:
                violations.append((c, cb, c_prime, "no abstract response"))
    # hypotheses; a truncated c is a horizon artifact, never blocking
    blocking_ok, blocking_w = True, None
    for c, cb in pairs:
        if G.blocking(c) and Gb.succ(cb):
            blocking_ok, blocking_w = False, (c, cb)
            break
    report.hypothesis_results = {
        "init(56)": _initialized(related, G, Gb),
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


