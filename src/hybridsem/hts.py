"""Hybrid transition systems and bounded generation of their semantics.

Two presentations coexist:

* schema-based: finitely many mode schemas with rates, entry
  constraints, and a deterministic exit condition.  This is the finite
  generator of an uncountable configuration set (initial constraints
  with continuous ranges are sampled at declared representative
  points).
* explicit: a finite configuration list with an explicit edge list,
  used by property tests and the counterexample gallery.

Transitions respect consecutiveness (e(c) = b(c')) and closeness: a
configuration has no successor exactly when it is final, i.e. closed
or unbounded.
"""

from __future__ import annotations

from collections import Counter, deque
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Optional

from .affine import COMPARE, LinExpr, parse_constraint, parse_expr, read_rational
from .errors import (
    BranchingExplosion,
    FinalNotClosed,
    NonConsecutiveEdge,
    NotASubset,
    ParamConstraintViolated,
    ParseError,
)
from .flow_config import AffineFlow, Configuration
from .records import record
from .relation import _known_keys, _strings, _typed
from .time_core import INF, Q, TimeInterval, earlier, exact, is_finite
from .trajectory import trajectory_validate

__all__ = [
    "ExitCondition",
    "ModeSchema",
    "Edge",
    "ExplicitSystem",
    "HybridTransitionSystem",
    "Semantics",
    "hts_validate",
    "successors",
    "Reached",
    "reach",
    "maximal_paths",
    "semantics_generate",
    "NO_TRAJECTORY",
    "blocking_check",
    "config_is_final",
]

# the one bound on configurations per trajectory that every check generates to
MAX_DEPTH = 64

NO_TRAJECTORY = "no trajectory: no initial configuration starts at 0 (InitialNotAtZero)"


def _repeated(names) -> str:
    """The names given more than once, sorted and comma-separated."""
    return ", ".join(sorted(n for n, k in Counter(names).items() if k > 1))


@record(frozen=True)
class ExitCondition:
    """Determines the unique configuration duration from the entry state.

    kind "duration": duration = value(entry vars)
    kind "reach":    leave when variable `var` reaches target(entry vars)
    """

    kind: str
    value: Optional[LinExpr] = None
    var: Optional[str] = None


@record(frozen=True)
class ModeSchema:
    mode: str
    rates: tuple  # sorted (var, Fraction)
    entry: tuple = ()  # AffineConstraint over entry variable values
    exit: Optional[ExitCondition] = None  # None = unbounded [t, inf)
    terminal: bool = False

    @staticmethod
    def make(mode, rates, entry=(), exit=None, terminal=False):
        rates = tuple(sorted((k, Q(v)) for k, v in rates.items()))
        return ModeSchema(mode, rates, tuple(entry), exit, terminal)


@record(frozen=True)
class Edge:
    src: str
    dst: str
    reset: tuple = ()  # (var, LinExpr over source exit values); others identity

    @staticmethod
    def make(src, dst, reset=None):
        return Edge(src, dst, tuple(sorted((reset or {}).items())))


@record(frozen=True)
class ExplicitSystem:
    configs: tuple  # Configuration
    edges: tuple  # (i, j) index pairs
    initial: tuple  # indices

    @cached_property
    def succ(self) -> dict:
        """Successor indices of each configuration index."""
        out = {i: [] for i in range(len(self.configs))}
        for i, j in self.edges:
            out[i].append(j)
        return out


@record(frozen=True)
class HybridTransitionSystem:
    variables: tuple
    zeta: Fraction
    schemas: tuple = ()  # ModeSchema
    edges: tuple = ()  # Edge
    initial: tuple = ()  # (mode, entry values dict as sorted tuple)
    explicit: Optional[ExplicitSystem] = None

    def __post_init__(self):
        # a positive minimum duration is what rules out Zeno runs
        if not self.zeta > 0:
            raise ParamConstraintViolated(f"minimum duration zeta {self.zeta} is not positive")
        twice = _repeated(s.mode for s in self.schemas)
        if twice:
            raise ParamConstraintViolated(f"mode(s) {twice} defined more than once")
        named = {m for e in self.edges for m in (e.src, e.dst)} | {m for m, _ in self.initial}
        undefined = ", ".join(sorted(named - {s.mode for s in self.schemas}))
        if undefined:
            raise ParamConstraintViolated(
                f"edge or initial state names undefined mode(s) {undefined}")

    @staticmethod
    def from_schemas(variables, zeta, schemas, edges, initial):
        init = tuple(
            (mode, tuple(sorted((k, Q(v)) for k, v in vals.items())))
            for mode, vals in initial
        )
        return HybridTransitionSystem(
            tuple(variables), Q(zeta), tuple(schemas), tuple(edges), init
        )

    @staticmethod
    def from_explicit(variables, zeta, configs, edges, initial):
        ex = ExplicitSystem(tuple(configs), tuple(edges), tuple(initial))
        return HybridTransitionSystem(tuple(variables), Q(zeta), explicit=ex)


@record(frozen=True)
class Semantics:
    trajectories: frozenset
    horizon: object
    depth_limit: int


def config_is_final(c: Configuration) -> bool:
    return c.interval.closed_hi or not is_finite(c.e)


def hts_validate(h: HybridTransitionSystem, horizon=None) -> list:
    """Report of violated transition-system conditions (empty = valid).

    A schema system is reached to the horizon and MAX_DEPTH, as every
    check reaches it, so a clean report is horizon-qualified for it.
    """
    report = []
    if h.explicit is not None:
        ex = h.explicit
        for i in ex.initial:
            if ex.configs[i].b != 0:
                report.append(("InitialNotAtZero", ex.configs[i]))
        for i, j in ex.edges:
            c, d = ex.configs[i], ex.configs[j]
            if c.e != d.b:
                report.append(("NonConsecutiveEdge", (c, d)))
            if config_is_final(c):
                report.append(("FinalNotClosed", ("edge out of final configuration", c)))
        for i, c in enumerate(ex.configs):
            if not ex.succ[i] and not config_is_final(c):
                report.append(("FinalNotClosed", c))
        return report
    # schema presentation: enter each mode at 0 from its sampled point
    _, start, _ = _schema_step(h)
    for mode, vals in h.initial:
        if start(mode, vals) is None:
            report.append(("InitialNotAtZero", (mode, vals)))
    if horizon is not None:
        try:
            reach(h, horizon)
        except FinalNotClosed as exc:
            report.append((type(exc).__name__, str(exc)))
    return report


def successors(h: HybridTransitionSystem, p) -> tuple:
    """The successor step of position p of an explicit system: an index
    into its configurations (two may hold equal ones), stepping along its
    edges.  A non-final configuration without an edge raises
    FinalNotClosed, and an edge to a configuration that does not start
    where its source ends raises NonConsecutiveEdge."""
    ex = h.explicit
    c, out = ex.configs[p], ex.succ[p]
    if not out and not config_is_final(c):
        raise FinalNotClosed(f"non-final configuration {c!r} has no successor")
    for q in out:
        if ex.configs[q].b != c.e:
            raise NonConsecutiveEdge(
                f"edge {c!r} -> {ex.configs[q]!r}: the target does not start at the source's end"
            )
    return out


def _at(terms, env) -> tuple:
    """(n, d), d > 0, with n/d the value of a LinExpr, given by its
    int_terms, at the values env[k] = (n, d) of its symbols."""
    (n, d), coefs = terms
    for k, a, b in coefs:
        vn, vd = env[k]
        n, d = n * b * vd + a * vn * d, d * b * vd
    return n, d


def _schema_step(h: HybridTransitionSystem) -> tuple:
    """(table, start, step), the one step of a schema system, in integers:
    values are pairs (n, d), d > 0.  enter(m, values, t) is the id of the
    configuration mode m enters at time t, or None if an entry constraint
    fails, m is unbounded and not terminal, or its exit gives no duration
    or one below zeta.  Its key (mode, start, end, int_lines) is interned,
    and table[id] built, int_lines filled, only when first met.  start
    enters a mode at 0 with (variable, Fraction) pairs; step(p) enters
    those along the edges out of p's mode at its end, or raises
    FinalNotClosed."""
    zn, zd, zero = h.zeta.numerator, h.zeta.denominator, Q(0)
    modes = {}
    for s in h.schemas:
        x, rates = s.exit, {k: exact(r) for k, r in s.rates}
        modes[s.mode] = (s.mode, s.terminal, rates,
                         {k: (r.numerator, r.denominator) for k, r in rates.items()},
                         tuple((COMPARE[c.op], c.lhs.int_terms) for c in s.entry),
                         x and (x.value.int_terms, None if x.kind == "duration" else x.var), [])
    for e in h.edges:
        if e.src in modes:
            modes[e.src][-1].append((e.dst, tuple((k, x.int_terms) for k, x in e.reset)))
    ids, table, rows = {}, [], []

    def enter(m, env, t):
        name, terminal, rates, irates, entry, exit_, _ = m
        for holds, terms in entry:
            if not holds(_at(terms, env)[0], 0):
                return None
        tn, td = t.numerator, t.denominator
        if exit_ is None:
            if not terminal:
                return None
            en, ed = 1, 0
        else:
            dn, dd = _at(exit_[0], env)
            if exit_[1] is not None:  # reach: (target - var) / rate, over a positive rn * rn
                rn, rd = irates.get(exit_[1], (0, 1))
                if not rn:
                    return None
                xn, xd = env[exit_[1]]
                dn, dd = (dn * xd - xn * dd) * rd * rn, dd * xd * rn * rn
            if dn * zd < zn * dd:
                return None
            en, ed = tn * dd + dn * td, td * dd
            g = gcd(en, ed)
            en, ed = en // g, ed // g
        il = []
        for k in sorted(env):
            xn, xd = env[k]
            rn, rd = irates.get(k, (0, 1))
            R, O, L = rn * xd * td, xn * rd * td - rn * tn * xd, xd * rd * td
            g = gcd(R, O, L)
            il.append((k, (R // g, O // g, L // g)))
        il = tuple(il)
        p = ids.setdefault((name, tn, td, en, ed, il), len(table))
        if p == len(table):
            flow = AffineFlow(name, tuple((k, (rates.get(k, zero), Q(O, L))) for k, (_, O, L) in il))
            flow.__dict__["int_lines"] = il
            hi = Q(en, ed) if ed else INF
            table.append(Configuration(flow, TimeInterval(t, hi, terminal and hi is not INF)))
            rows.append((m, il))
        return p

    def start(mode, vals):
        return enter(modes[mode], {k: (v.numerator, v.denominator) for k, v in vals}, zero)

    def step(p):
        (m, il), c = rows[p], table[p]
        en, ed = c.e.numerator, c.e.denominator
        env = {k: (R * en + O * ed, L * ed) for k, (R, O, L) in il}
        out = []
        for dst, reset in m[-1]:
            q = enter(modes[dst], {**env, **{k: _at(terms, env) for k, terms in reset}}, c.e)
            if q is not None:
                out.append(q)
        if not out:
            raise FinalNotClosed(f"non-terminal configuration {c!r} has no admissible successor")
        return out

    return table, start, step


@record(frozen=True)
class Reached:
    """Positions (ints, see `successors` and `_schema_step`) reached from
    the initial ones, with their successors (none at a leaf) and configurations
    (cut at the horizon); `distinct` when no two hold equal ones, as in a schema system."""

    initial: tuple
    succ: dict
    config: dict
    truncated: frozenset  # leaves cut by the horizon or the depth bound
    horizon: object
    distinct: bool


def reach(h: HybridTransitionSystem, horizon, depth: int = MAX_DEPTH) -> Reached:
    """Breadth-first worklist over positions (horizon > 0, depth >= 0).
    A reached position is a leaf cut at the horizon when it ends after it,
    complete when final, cut at the horizon when it ends on it, and cut by
    depth when first reached at rank `depth`; otherwise its successors are
    reached.  A position starting at or after the horizon is not reached.
    Following an edge out of a final explicit configuration, or ending a
    non-final one without an edge, raises FinalNotClosed, and following an
    edge whose target does not start at its source's end raises NonConsecutiveEdge,
    as `hts_validate` reports all three; such a configuration cut at the
    horizon (ending on it, say) or by depth is a leaf like any other."""
    horizon = Q(horizon) if is_finite(horizon) else INF
    if horizon <= 0 or depth < 0:
        raise ParamConstraintViolated(f"need horizon > 0 and depth >= 0, got {horizon}, {depth}")
    ex = h.explicit
    if ex is not None:
        table, step = ex.configs, lambda p: successors(h, p)
        starts = [i for i in ex.initial if table[i].b == 0]
    else:
        table, start, step = _schema_step(h)
        starts = [p for p in (start(m, v) for m, v in h.initial) if p is not None]
    bounded = is_finite(horizon)
    rank, config, succ, truncated = {}, {}, {}, set()
    queue = deque()

    def visit(p, n) -> bool:
        if p not in rank:
            c = table[p]
            if not earlier(c.b, horizon):
                return False
            rank[p], config[p] = n, c
            queue.append(p)
        return True

    initial = tuple(p for p in dict.fromkeys(starts) if visit(p, 1))
    while queue:
        p = queue.popleft()
        c = config[p]
        crosses = earlier(horizon, c.e)
        # a schema configuration is final iff its mode is terminal
        if config_is_final(c) and (ex is None or not ex.succ[p]) and not crosses:
            succ[p] = ()
        elif crosses or bounded and not earlier(c.e, horizon) or rank[p] >= depth:
            # kept when it ends open by the horizon, else sliced to [b, horizon)
            if not (is_finite(c.e) and c.e <= horizon and not c.interval.closed_hi):
                config[p] = Configuration(c.flow, TimeInterval(c.b, horizon, False))
            truncated.add(p)
            succ[p] = ()
        else:
            if ex is not None and config_is_final(c):
                raise FinalNotClosed(f"edge out of final configuration {c!r}")
            nexts = dict.fromkeys(step(p))
            succ[p] = tuple(q for q in nexts if visit(q, rank[p] + 1))
    return Reached(initial, succ, config, frozenset(truncated), horizon, ex is None)


def maximal_paths(starts, adj: dict, max_len: Optional[int] = None,
                  max_trajectories: Optional[int] = None) -> set:
    """Paths from starts along adj that end where no edge leaves, or
    once they hold max_len states; more than max_trajectories paths
    raise BranchingExplosion."""
    out = set()
    stack = [(u,) for u in starts]
    while stack:
        path = stack.pop()
        nexts = adj.get(path[-1], ())
        if not nexts or (max_len is not None and len(path) >= max_len):
            out.add(path)
            continue
        stack.extend(path + (b,) for b in nexts)
        if max_trajectories is not None and len(stack) + len(out) > max_trajectories:
            raise BranchingExplosion(f"more than {max_trajectories} trajectories")
    return out


def semantics_generate(h: HybridTransitionSystem, horizon, depth: int = MAX_DEPTH,
                       max_trajectories: int = 10000) -> Semantics:
    """Maximal trajectories up to the horizon and depth bound: the
    maximal paths of the reached positions.  `h` may be what `reach`
    returned for the system, horizon and depth.

    Trajectories still extendable at a bound are flagged truncated.
    Finite maximal trajectories end in a final configuration.
    """
    g = h if isinstance(h, Reached) else reach(h, horizon, depth)
    trajectories = frozenset(
        trajectory_validate(
            [g.config[p] for p in path],
            truncated=path[-1] in g.truncated or bool(g.succ[path[-1]]),
        )
        for path in maximal_paths(g.initial, g.succ, depth, max_trajectories)
    )
    return Semantics(trajectories, g.horizon, depth)


def blocking_check(tau: HybridTransitionSystem, tau_prime: HybridTransitionSystem) -> bool:
    """True iff every tau-blocking configuration is tau_prime-blocking.

    Both systems must share the explicit configuration universe and
    tau's edges must be a subset of tau_prime's.
    """
    if tau.explicit is None or tau_prime.explicit is None:
        raise NotASubset("blocking_check needs explicit presentations")
    if tau.explicit.configs != tau_prime.explicit.configs:
        raise NotASubset("configuration universes differ")
    if not set(tau.explicit.edges) <= set(tau_prime.explicit.edges):
        raise NotASubset("tau is not a subset of tau_prime")
    succ, succ_p = tau.explicit.succ, tau_prime.explicit.succ
    for i in range(len(tau.explicit.configs)):
        if not succ[i] and succ_p[i]:
            return False
    return True


def hts_from_json(doc: dict) -> HybridTransitionSystem:
    """System description file: variables, modes, edges, initial, zeta.

    Fails closed with ParseError on a key it does not know (a misspelt
    "rates" would leave every rate 0) or that its exit type does not
    read, on a required key it lacks, on an unknown exit type, on an
    empty list of initial states (every check would pass vacuously), on
    an edge or initial state naming an undeclared mode, on a rate,
    reset, initial value, exit or constraint naming an undeclared
    variable, on an initial state that leaves a declared variable
    without a value, on a mode or variable declared twice (a table by
    name would keep one of them), and on a value of the wrong JSON type."""
    _known_keys(doc, ("variables", "zeta", "modes", "edges", "initial"), "system",
                ("variables", "modes", "initial"))
    variables = tuple(_strings(doc["variables"], "system variables"))
    if _repeated(variables):
        raise ParseError(f"system declares variable(s) {_repeated(variables)} more than once")
    declared = set(variables)

    def known(names, what):
        unknown = sorted(set(names) - declared)
        if unknown:
            raise ParseError(f"{what} names undeclared variable(s) {', '.join(unknown)}")

    zeta = read_rational(doc.get("zeta", "1/1000"), "system zeta")
    schemas = []
    for m in _typed(doc["modes"], list, "system modes"):
        _known_keys(m, ("name", "rates", "entry", "exit", "terminal"), "mode", ("name",))
        where = f"mode {_typed(m['name'], str, 'mode name')}"
        exit_doc = m.get("exit")
        exit_cond = None
        if exit_doc is not None:
            _known_keys(exit_doc, ("type", "value", "target", "var"), f"{where} exit", ("type",))
            if exit_doc["type"] == "duration":
                _known_keys(exit_doc, ("type", "value"), f"{where} duration exit", ("value",))
                exit_cond = ExitCondition("duration", parse_expr(str(exit_doc["value"])))
            elif exit_doc["type"] == "reach":
                _known_keys(exit_doc, ("type", "target", "var"), f"{where} reach exit",
                            ("target", "var"))
                exit_cond = ExitCondition(
                    "reach", parse_expr(str(exit_doc["target"])),
                    _typed(exit_doc["var"], str, f"{where} exit var"),
                )
                known([exit_cond.var], f"{where} exit")
            else:
                raise ParseError(f"{where}: unknown exit type {exit_doc['type']!r}")
            known(exit_cond.value.symbols(), f"{where} exit")
        rates = {k: read_rational(v, f"{where} rates") for k, v in
                 _known_keys(m.get("rates", {}), declared, f"{where} rates").items()}
        entry = tuple(parse_constraint(c) for c in _strings(m.get("entry", []), f"{where} entry"))
        for c in entry:
            known(c.symbols(), f"{where} entry")
        terminal = _typed(m.get("terminal", False), bool, f"{where} terminal")
        schemas.append(ModeSchema.make(m["name"], rates, entry, exit_cond, terminal))
    twice = _repeated(s.mode for s in schemas)
    if twice:
        raise ParseError(f"system defines mode(s) {twice} more than once")
    modes = {s.mode for s in schemas}

    def declared_mode(name, what):
        if not isinstance(name, str) or name not in modes:
            raise ParseError(f"{what} names undeclared mode {name!r}")
        return name

    edges = []
    for e in _typed(doc.get("edges", []), list, "system edges"):
        _known_keys(e, ("src", "dst", "reset"), "edge", ("src", "dst"))
        where = f"edge {e['src']} -> {e['dst']}"
        reset = {k: parse_expr(str(v)) for k, v in
                 _known_keys(e.get("reset", {}), declared, f"{where} reset").items()}
        for expr in reset.values():
            known(expr.symbols(), f"{where} reset")
        src, dst = (declared_mode(e[k], where) for k in ("src", "dst"))
        edges.append(Edge.make(src, dst, reset))
    if not _typed(doc["initial"], list, "system initial"):
        raise ParseError("system: no initial state")
    initial = []
    for i in doc["initial"]:
        _known_keys(i, ("mode", "values"), "initial state", ("mode", "values"))
        where = f"initial state in {declared_mode(i['mode'], 'initial state')}"
        values = _known_keys(i["values"], declared, where)
        values = {k: read_rational(v, where) for k, v in values.items()}
        unset = sorted(declared - set(values))
        if unset:
            raise ParseError(f"{where} gives no value to {', '.join(unset)}")
        initial.append((i["mode"], values))
    return HybridTransitionSystem.from_schemas(variables, zeta, schemas, tuple(edges), initial)
