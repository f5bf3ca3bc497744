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

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .affine import AffineConstraint, LinExpr, parse_constraint, parse_expr
from .errors import (
    BranchingExplosion,
    FinalNotClosed,
    InitialNotAtZero,
    NonConsecutiveEdge,
    NotASubset,
    ParamConstraintViolated,
    ParseError,
)
from .flow_config import AffineFlow, Configuration, make_config
from .time_core import INF, Q, TimeInterval, is_finite
from .trajectory import Trajectory, trajectory_validate

__all__ = [
    "ExitCondition",
    "ModeSchema",
    "Edge",
    "ExplicitSystem",
    "HybridTransitionSystem",
    "Semantics",
    "hts_validate",
    "semantics_generate",
    "blocking_check",
    "explicit_successors",
    "config_is_final",
]


@dataclass(frozen=True)
class ExitCondition:
    """Determines the unique configuration duration from the entry state.

    kind "duration": duration = value(entry vars)
    kind "reach":    leave when variable `var` reaches target(entry vars)
    """

    kind: str
    value: Optional[LinExpr] = None
    var: Optional[str] = None

    def duration_for(self, entry: dict, rates: dict):
        if self.kind == "duration":
            return self.value.eval(entry)
        rate = Q(rates.get(self.var, 0))
        if rate == 0:
            return None
        return (self.value.eval(entry) - Q(entry[self.var])) / rate


@dataclass(frozen=True)
class ModeSchema:
    mode: str
    rates: tuple  # sorted (var, Fraction)
    entry: tuple = ()  # AffineConstraint over entry variable values
    exit: Optional[ExitCondition] = None  # None = unbounded [t, inf)
    terminal: bool = False

    @staticmethod
    def make(mode, rates, entry=(), exit=None, terminal=False):
        return ModeSchema(
            mode,
            tuple(sorted((k, Q(v)) for k, v in rates.items())),
            tuple(entry),
            exit,
            terminal,
        )

    def admits(self, entry_values: dict) -> bool:
        return all(c.holds(entry_values) for c in self.entry)

    def instantiate(self, t0, entry_values: dict, zeta) -> Optional[Configuration]:
        """Configuration entered at t0 with the given variable values.

        Returns None when the entry constraints reject the state or the
        exit condition yields a duration below zeta.
        """
        if not self.admits(entry_values):
            return None
        rates = dict(self.rates)
        if self.exit is None:
            if not self.terminal:
                return None
            return make_config(self.mode, t0, INF, entry_values, rates)
        dur = self.exit.duration_for(entry_values, rates)
        if dur is None or dur < zeta:
            return None
        return make_config(
            self.mode, t0, Q(t0) + dur, entry_values, rates, closed_hi=self.terminal
        )


@dataclass(frozen=True)
class Edge:
    src: str
    dst: str
    reset: tuple = ()  # (var, LinExpr over source exit values); others identity

    @staticmethod
    def make(src, dst, reset=None):
        reset = reset or {}
        return Edge(src, dst, tuple(sorted(reset.items())))

    def apply(self, exit_values: dict) -> dict:
        out = dict(exit_values)
        for var, expr in self.reset:
            out[var] = expr.eval(exit_values) if isinstance(expr, LinExpr) else Q(expr)
        return out


@dataclass(frozen=True)
class ExplicitSystem:
    configs: tuple  # Configuration
    edges: tuple  # (i, j) index pairs
    initial: tuple  # indices


@dataclass(frozen=True)
class HybridTransitionSystem:
    variables: tuple
    zeta: Fraction
    schemas: tuple = ()  # ModeSchema
    edges: tuple = ()  # Edge
    initial: tuple = ()  # (mode, entry values dict as sorted tuple)
    explicit: Optional[ExplicitSystem] = None

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

    def schema(self, mode) -> ModeSchema:
        for s in self.schemas:
            if s.mode == mode:
                return s
        raise KeyError(mode)


@dataclass(frozen=True)
class Semantics:
    trajectories: frozenset
    horizon: object
    depth_limit: int


def config_is_final(c: Configuration) -> bool:
    return c.interval.closed_hi or not is_finite(c.e)


def explicit_successors(h: HybridTransitionSystem):
    """Successor index map of the explicit presentation."""
    succ = {i: [] for i in range(len(h.explicit.configs))}
    for i, j in h.explicit.edges:
        succ[i].append(j)
    return succ


def hts_validate(h: HybridTransitionSystem, horizon=None, depth: int = 32) -> list:
    """Report of violated transition-system conditions (empty = valid).

    Schema systems are checked on a bounded instantiation, so a clean
    report is horizon-qualified for them.
    """
    report = []
    if h.explicit is not None:
        ex = h.explicit
        succ = explicit_successors(h)
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
            if not succ[i] and not config_is_final(c):
                report.append(("FinalNotClosed", c))
        return report
    # schema presentation: instantiate from the sampled initial points
    for mode, vals in h.initial:
        cfg = h.schema(mode).instantiate(Q(0), dict(vals), h.zeta)
        if cfg is None:
            report.append(("InitialNotAtZero", (mode, vals)))
    if horizon is not None:
        try:
            semantics_generate(h, horizon, depth)
        except (BranchingExplosion, FinalNotClosed) as exc:
            report.append((type(exc).__name__, str(exc)))
    return report


def _truncate_at(configs: list, horizon) -> Optional[Trajectory]:
    """Prefix strictly before the horizon, flagged truncated."""
    from .flow_config import config_slice

    kept = []
    for c in configs:
        if c.b >= horizon:
            break
        if is_finite(c.e) and c.e <= horizon and not c.interval.closed_hi:
            kept.append(c)
        else:
            kept.append(
                Configuration(
                    c.flow, TimeInterval(c.b, Q(horizon), False)
                )
                if c.b < horizon
                else c
            )
            break
    if not kept:
        return None
    return trajectory_validate(kept, truncated=True)


def semantics_generate(
    h: HybridTransitionSystem,
    horizon,
    depth: int = 64,
    max_trajectories: int = 10000,
) -> Semantics:
    """Maximal trajectories up to the horizon and depth bound.

    Trajectories still extendable at a bound are flagged truncated.
    Finite maximal trajectories end in a final configuration.
    """
    horizon = Q(horizon) if is_finite(horizon) else INF
    if horizon < 0:
        raise ParamConstraintViolated(f"horizon {horizon} is negative")
    done: set = set()

    if h.explicit is not None:
        succ = explicit_successors(h)
        ex = h.explicit
        stack = [[i] for i in ex.initial if ex.configs[i].b == 0]
        while stack:
            path = stack.pop()
            last = ex.configs[path[-1]]
            configs = [ex.configs[i] for i in path]
            nexts = succ[path[-1]]
            over = is_finite(horizon) and (not is_finite(last.e) or last.e > horizon)
            if over:
                t = _truncate_at(configs, horizon)
                if t is not None:
                    done.add(t)
                continue
            if not nexts:
                done.add(trajectory_validate(configs, truncated=False))
                continue
            if (is_finite(horizon) and last.e >= horizon) or len(path) >= depth:
                t = _truncate_at(configs, horizon)
                if t is not None:
                    done.add(t)
                continue
            for j in nexts:
                stack.append(path + [j])
            if len(stack) + len(done) > max_trajectories:
                raise BranchingExplosion(f"more than {max_trajectories} trajectories")
        return Semantics(frozenset(done), horizon, depth)

    # schema presentation
    stack = []
    for mode, vals in h.initial:
        cfg = h.schema(mode).instantiate(Q(0), dict(vals), h.zeta)
        if cfg is not None:
            stack.append([cfg])
    while stack:
        path = stack.pop()
        last = path[-1]
        schema = h.schema(last.flow.mode)
        if schema.terminal:
            if is_finite(horizon) and (not is_finite(last.e) or last.e > horizon):
                t = _truncate_at(path, horizon)
                if t is not None:
                    done.add(t)
            else:
                done.add(trajectory_validate(path, truncated=False))
            continue
        if is_finite(horizon) and last.e >= horizon or len(path) >= depth:
            t = _truncate_at(path, horizon)
            if t is not None:
                done.add(t)
            continue
        exit_values = last.flow.state_at(last.e).as_dict()
        extended = False
        for edge in h.edges:
            if edge.src != last.flow.mode:
                continue
            entry = edge.apply(exit_values)
            nxt = h.schema(edge.dst).instantiate(last.e, entry, h.zeta)
            if nxt is not None:
                stack.append(path + [nxt])
                extended = True
        if not extended:
            raise FinalNotClosed(
                f"non-terminal configuration {last!r} has no admissible successor"
            )
        if len(stack) + len(done) > max_trajectories:
            raise BranchingExplosion(f"more than {max_trajectories} trajectories")
    return Semantics(frozenset(done), horizon, depth)


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
    succ = explicit_successors(tau)
    succ_p = explicit_successors(tau_prime)
    for i in range(len(tau.explicit.configs)):
        if not succ[i] and succ_p[i]:
            return False
    return True


def hts_from_json(doc: dict) -> HybridTransitionSystem:
    """System description file: variables, modes, edges, initial, zeta.

    Fails closed with ParseError on an unknown exit type, on an edge or
    initial state naming an undeclared mode, on a rate, reset, initial
    value, exit or constraint naming an undeclared variable, and on an
    initial state that leaves a declared variable without a value."""
    variables = tuple(doc["variables"])
    declared = set(variables)

    def known(names, what):
        unknown = sorted(set(names) - declared)
        if unknown:
            raise ParseError(f"{what} names undeclared variable(s) {', '.join(unknown)}")

    zeta = Q(doc.get("zeta", "1/1000"))
    schemas = []
    for m in doc["modes"]:
        where = f"mode {m['name']}"
        exit_doc = m.get("exit")
        exit_cond = None
        if exit_doc is not None:
            if exit_doc["type"] == "duration":
                exit_cond = ExitCondition("duration", parse_expr(str(exit_doc["value"])))
            elif exit_doc["type"] == "reach":
                exit_cond = ExitCondition(
                    "reach", parse_expr(str(exit_doc["target"])), exit_doc["var"]
                )
                known([exit_cond.var], f"{where} exit")
            else:
                raise ParseError(f"{where}: unknown exit type {exit_doc['type']!r}")
            known(exit_cond.value.symbols(), f"{where} exit")
        rates = {k: Q(v) for k, v in m.get("rates", {}).items()}
        known(rates, f"{where} rates")
        entry = tuple(parse_constraint(c) for c in m.get("entry", []))
        for c in entry:
            known(c.symbols(), f"{where} entry")
        terminal = bool(m.get("terminal", False))
        schemas.append(ModeSchema.make(m["name"], rates, entry, exit_cond, terminal))
    modes = {s.mode for s in schemas}

    def declared_mode(name, what):
        if name not in modes:
            raise ParseError(f"{what} names undeclared mode {name!r}")
        return name

    edges = []
    for e in doc.get("edges", []):
        where = f"edge {e['src']} -> {e['dst']}"
        reset = {k: parse_expr(str(v)) for k, v in e.get("reset", {}).items()}
        known(reset, f"{where} reset")
        for expr in reset.values():
            known(expr.symbols(), f"{where} reset")
        src, dst = (declared_mode(e[k], where) for k in ("src", "dst"))
        edges.append(Edge.make(src, dst, reset))
    initial = []
    for i in doc["initial"]:
        where = f"initial state in {declared_mode(i['mode'], 'initial state')}"
        values = {k: Q(v) for k, v in i["values"].items()}
        known(values, where)
        unset = sorted(declared - set(values))
        if unset:
            raise ParseError(f"{where} gives no value to {', '.join(unset)}")
        initial.append((i["mode"], values))
    return HybridTransitionSystem.from_schemas(variables, zeta, schemas, tuple(edges), initial)
