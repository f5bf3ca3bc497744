"""Water-tank case study: specification predicate, two-mode automaton,
four-mode valve-delay implementation, their relations, the three-stage
refinement chain, and the named counterexample gallery.

Conventions: the tank state has a water level y and a clock x; the
specification observes only the level and the valve mode.  All
parameters are exact rationals; defaults epsilon = 1/4, zeta = 1/100,
initial clock samples {0, 1, 2}.

The implementation's shut-phase level rate is the fixed 3/(3 - 2e).
Validation of the published inter-level relation is computational: the
off-phase and open-phase clauses check out exactly; the shut-phase
offset formula and the on-phase quotient do not (see the chain report),
and those findings are reported verbatim, never patched.
"""

from __future__ import annotations

from .affine import AffineConstraint, LinExpr, parse_constraint
from .errors import ParamConstraintViolated, UnknownFixture
from .flow_config import (
    AffineFlow,
    Configuration,
    PiecewiseConfiguration,
    State,
    make_config,
    pieces,
)
from .hts import Edge, ExitCondition, HybridTransitionSystem, ModeSchema, semantics_generate
from .records import record
from .relation import Clause, TimedStateRelation, traj_related_timewise
from .simulation import ConfigGraph, compose_check, config_graph, sim_check
from .time_core import INF, Q, TimeInterval, is_finite
from .trajectory import (
    TimefulState, Trajectory, config_var_ranges, trajectory_eval, trajectory_validate
)

__all__ = [
    "TankParams",
    "build_tank_automaton",
    "build_tank_impl",
    "spec_predicate_check",
    "tank_relations",
    "spec_witness",
    "abstract_witness",
    "run_refinement_chain",
    "gallery_fixture",
    "GALLERY_NAMES",
]

DEFAULT_EPSILON = Q(1, 4)
DEFAULT_ZETA = Q(1, 100)
DEFAULT_X0 = (Q(0), Q(1), Q(2))


@record(frozen=True)
class TankParams:
    epsilon: Q
    zeta: Q
    x0_samples: tuple

    @staticmethod
    def make(epsilon=DEFAULT_EPSILON, zeta=DEFAULT_ZETA, x0_samples=DEFAULT_X0):
        epsilon, zeta = Q(epsilon), Q(zeta)
        xs = tuple(Q(x) for x in x0_samples)
        if epsilon <= zeta:
            raise ParamConstraintViolated(
                f"valve delay {epsilon} must exceed the minimum duration {zeta}"
            )
        for x0 in xs:
            if not (0 <= x0 < 3):
                raise ParamConstraintViolated(f"initial clock {x0} outside [0,3)")
            if 3 - x0 <= 2 * epsilon:
                raise ParamConstraintViolated(
                    f"shut block from x0={x0} shorter than twice the delay"
                )
        return TankParams(epsilon, zeta, xs)


def build_tank_automaton(p: TankParams) -> HybridTransitionSystem:
    """Two modes: level rises at 1 while shut, drains at 2 while open;
    the valve opens when the clock reaches 3 and the clock restarts."""
    shut = ModeSchema.make(
        "shut",
        {"x": 1, "y": 1},
        entry=(parse_constraint("y = 0"),),
        exit=ExitCondition("reach", LinExpr.constant(3), "x"),
    )
    open_ = ModeSchema.make(
        "open",
        {"x": 1, "y": -2},
        entry=(parse_constraint("x = 0"),),
        exit=ExitCondition("reach", LinExpr.constant(0), "y"),
    )
    edges = (
        Edge.make("shut", "open", {"x": LinExpr.constant(0)}),
        Edge.make("open", "shut"),
    )
    initial = [("shut", {"x": x0, "y": Q(0)}) for x0 in p.x0_samples]
    return HybridTransitionSystem.from_schemas(("x", "y"), p.zeta, (shut, open_), edges, initial)


def build_tank_impl(p: TankParams) -> HybridTransitionSystem:
    """Valve takes epsilon to actuate: off (level still empty), shut
    (faster fill at 3/(3-2e)), on (level held), then open."""
    e = p.epsilon
    off = ModeSchema.make(
        "off",
        {"x": 1, "y": 0},
        entry=(parse_constraint("y = 0"),),
        exit=ExitCondition("duration", LinExpr.constant(e)),
    )
    shut = ModeSchema.make(
        "shut",
        {"x": 1, "y": Q(3) / (3 - 2 * e)},
        entry=(parse_constraint("y = 0"),),
        exit=ExitCondition("reach", LinExpr.constant(3 - e), "x"),
    )
    on = ModeSchema.make(
        "on",
        {"x": 1, "y": 0},
        exit=ExitCondition("reach", LinExpr.constant(3), "x"),
    )
    open_ = ModeSchema.make(
        "open",
        {"x": 1, "y": -2},
        entry=(parse_constraint("x = 0"),),
        exit=ExitCondition("reach", LinExpr.constant(0), "y"),
    )
    edges = (
        Edge.make("off", "shut"),
        Edge.make("shut", "on"),
        Edge.make("on", "open", {"x": LinExpr.constant(0)}),
        Edge.make("open", "off"),
    )
    initial = [("off", {"x": x0, "y": Q(0)}) for x0 in p.x0_samples]
    return HybridTransitionSystem.from_schemas(
        ("x", "y"), p.zeta, (off, shut, on, open_), edges, initial
    )


def spec_predicate_check(s: Trajectory, zeta) -> tuple:
    """The level stays in [0,3], strictly falls while open, strictly
    rises while shut, and does not sit at zero for a zeta interval.
    Returns (ok, violations) with exact time witnesses."""
    zeta = Q(zeta)
    violations = []
    all_pieces = [pc for c in s.configs for pc in pieces(c)]
    for pc in all_pieces:
        lo, hi = config_var_ranges(pc)["y"]
        if lo is None or lo < 0 or not is_finite(hi) or hi > 3:
            violations.append(("a", pc.b, f"level range [{lo},{hi}] leaves [0,3]"))
        rate = dict(pc.flow.rate)["y"]
        if pc.flow.mode == "open" and rate >= 0:
            violations.append(("b", pc.b, f"open with level rate {rate}"))
        if pc.flow.mode == "shut" and rate <= 0:
            violations.append(("c", pc.b, f"shut with level rate {rate}"))
    # zero-dwell: at every time the level hits zero it must be positive
    # zeta later (if that instant is still within the trajectory)
    dur = s.duration
    for pc in all_pieces:
        rate, offset = dict(pc.flow.lines)["y"]
        zeros = []
        if rate == 0 and offset == 0:
            zeros.append(pc.b)
        elif rate != 0:
            t0 = -offset / rate
            if pc.interval.contains(t0):
                zeros.append(t0)
        for t0 in zeros:
            t1 = t0 + zeta
            if is_finite(dur) and t1 >= dur:
                continue  # horizon-qualified
            st = trajectory_eval(s, t1)
            if st is None or not hasattr(st, "var"):
                continue
            if st.var("y") <= 0:
                violations.append(("d", t0, f"level {st.var('y')} at {t1}"))
    return (not violations), violations


def spec_witness(s: Trajectory) -> Trajectory:
    """Level-and-mode projection of a trajectory, packed as one
    piecewise configuration (the specification side has no mode-change
    transition structure of its own)."""
    level = []
    for c in s.configs:
        for pc in pieces(c):
            flow = AffineFlow(pc.flow.mode, (("y", dict(pc.flow.lines)["y"]),))
            level.append(Configuration(flow, pc.interval))
    cfg = level[0] if len(level) == 1 else PiecewiseConfiguration(tuple(level))
    return Trajectory((cfg,), s.truncated)


def tank_relations(p: TankParams) -> dict:
    """r39: same valve mode and same level (clock unconstrained).
    R53: the published four-case configuration relation, endpoint
    symbols bound to the enclosing configuration intervals; the
    shut-case offset and on-case quotient are built exactly as
    published (the on-case denominator is zero under its own endpoint
    constraints, making that clause unevaluable — reported upstream)."""
    e = p.epsilon
    y_eq = parse_constraint("c_y = a_y")
    x_eq = parse_constraint("c_x = a_x")
    r39 = TimedStateRelation(
        (
            Clause((y_eq,), concrete_mode="shut", abstract_mode="shut"),
            Clause((y_eq,), concrete_mode="open", abstract_mode="open"),
        )
    )

    def shut_offset(ep):
        # abar_y = y + e*(1 - 2*(E_c - t)/(E_c - B_c)), as published
        if not (is_finite(ep.get("B_c", INF)) and is_finite(ep.get("E_c", INF))):
            return None
        length = ep["E_c"] - ep["B_c"]
        if length == 0:
            return None
        k = 2 * e / length
        lhs = LinExpr.make(
            {"a_y": 1, "c_y": -1, "t": -k}, -e + k * ep["E_c"]
        )
        return (AffineConstraint(lhs, "="),)

    def on_quotient(ep):
        # y = abar_y + e*(E_a - t)/(E_a - E_c), as published; the static
        # constraints force E_a = E_c, so the denominator vanishes
        if not (is_finite(ep.get("E_a", INF)) and is_finite(ep.get("E_c", INF))):
            return None
        den = ep["E_a"] - ep["E_c"]
        if den == 0:
            return None
        k = e / den
        lhs = LinExpr.make({"c_y": 1, "a_y": -1, "t": k}, -k * ep["E_a"])
        return (AffineConstraint(lhs, "="),)

    eps = str(e)
    off_clause = Clause(
        (
            x_eq,
            parse_constraint("c_y = 0"),
            parse_constraint("a_y = t - B_c"),
            parse_constraint("B_c = B_a"),
            parse_constraint(f"E_c = B_a + {eps}"),
        ),
        concrete_mode="off",
        abstract_mode="shut",
    )
    shut_clause = Clause(
        (
            x_eq,
            parse_constraint(f"B_c = B_a + {eps}"),
            parse_constraint(f"E_c = E_a - {eps}"),
        ),
        concrete_mode="shut",
        abstract_mode="shut",
        dynamic=shut_offset,
    )
    on_clause = Clause(
        (
            x_eq,
            parse_constraint(f"B_c = E_a - {eps}"),
            parse_constraint("E_c = E_a"),
        ),
        concrete_mode="on",
        abstract_mode="shut",
        dynamic=on_quotient,
    )
    open_clause = Clause(
        (x_eq, y_eq, parse_constraint("B_c = B_a"), parse_constraint("E_c = E_a")),
        concrete_mode="open",
        abstract_mode="open",
    )
    r53 = TimedStateRelation((off_clause, shut_clause, on_clause, open_clause))
    return {"r39": r39, "R53": r53}


def abstract_witness(s: Trajectory) -> Trajectory:
    """Automaton-shaped companion of an implementation trajectory: each
    off/shut/on block becomes one shut configuration entered at level 0
    with the same clock; open phases carry the implementation's level.

    Transitions on the abstract side need only be consecutive in time,
    so the open entry level follows the concrete peak.
    """
    blocks = []
    current = []
    for c in s.configs:
        if c.flow.mode == "open":
            if current:
                blocks.append(("shutblock", current))
                current = []
            blocks.append(("open", [c]))
        else:
            current.append(c)
    if current:
        blocks.append(("shutblock", current))
    out = []
    for kind, configs in blocks:
        first, last = configs[0], configs[-1]
        interval = TimeInterval(first.b, last.e, last.interval.closed_hi)
        if kind == "shutblock":
            flow = AffineFlow.make(
                "shut", first.b, {"x": first.flow.value("x", first.b), "y": 0}, {"x": 1, "y": 1}
            )
        else:
            flow = AffineFlow.make(
                "open",
                first.b,
                {"x": 0, "y": first.flow.value("y", first.b)},
                {"x": 1, "y": -2},
            )
        out.append(Configuration(flow, interval))
    return Trajectory(tuple(out), s.truncated)


def _positions(g: ConfigGraph, s: Trajectory) -> list:
    """The position in s of each configuration of g, by id: g is the
    graph of s, so it holds s's configurations themselves."""
    at = {id(c): k for k, c in enumerate(s.configs)}
    return [at[id(c)] for c in g.configs()]


def run_refinement_chain(p: TankParams, horizon) -> dict:
    """Three stages: automaton against the specification, implementation
    against the automaton companions, and the composed relation.  Every
    published-formula mismatch is reported with its exact witness."""
    horizon = Q(horizon)
    rels = tank_relations(p)
    report: dict = {"horizon": horizon, "stages": {}}

    automaton = build_tank_automaton(p)
    impl = build_tank_impl(p)

    # stage i: every automaton trajectory refines the specification
    sem3 = semantics_generate(automaton, horizon)
    stage1 = {"witnesses": [], "unmatched": [], "predicate_failures": []}
    for s in sorted(sem3.trajectories, key=repr):
        w = spec_witness(s)
        ok_pred, viol = spec_predicate_check(w, p.zeta)
        if not ok_pred:
            stage1["predicate_failures"].append((s, viol))
        if traj_related_timewise(rels["r39"], s, w):
            stage1["witnesses"].append((s, w))
        else:
            stage1["unmatched"].append(s)
    stage1["ok"] = not stage1["unmatched"] and not stage1["predicate_failures"]
    report["stages"]["i"] = stage1

    # stage ii: synchronous simulation of the implementation by the
    # automaton-shaped companions under the published relation; each
    # trajectory is checked against its own companion (companions of
    # different trajectories share no transition structure)
    sem6 = semantics_generate(impl, horizon)
    trajectories = sorted(sem6.trajectories, key=repr)
    companions = [abstract_witness(s) for s in trajectories]
    # each check's pair table, by position
    sims, known = [], []
    phase: dict = {}
    for s, w in zip(trajectories, companions):
        G, Gb = config_graph(s), config_graph(w)
        sim = sim_check(rels["R53"], G, Gb)
        sims.append((s, sim))
        at_s, at_w = _positions(G, s), _positions(Gb, w)
        known.append({(at_s[i], at_w[j]): held for (i, j), held in sim.pairs.items()})
        # window-by-window certification of each published clause, read
        # from the pairs the check decided, in the order of s and w
        for (k, m), ok_here in sorted(known[-1].items()):
            c = s.configs[k]
            if s.truncated and c is s.configs[-1]:
                # horizon artifact: the published endpoint constraints
                # speak about the full phase, which the cut hides
                continue
            good, bad = phase.get(c.flow.mode, (0, 0))
            phase[c.flow.mode] = (good + ok_here, bad + (not ok_here))
    verdict = all(sim.verdict for _, sim in sims)
    stage2 = {
        "well_nested": all(sim.hypothesis_results["well_nested(59)"][0] for _, sim in sims),
        "sims": sims,
        "phase_certification": phase,
        "ok": verdict,
        "discrepancy": None,
    }
    if not verdict:
        first = next(sim.violations[0] for _, sim in sims if sim.violations)
        stage2["discrepancy"] = (
            "published inter-level formulas fail the exact check: the "
            "shut-case offset has the wrong sign at the phase entry and "
            "the on-case quotient divides by zero under its own endpoint "
            "constraints; first witness: " + repr(first)
        )
    report["stages"]["ii"] = stage2

    # stage iii: composition through the companions down to the spec view
    ok3, failures, certified = compose_check(
        rels["R53"], rels["r39"], trajectories, companions, [spec_witness(w) for w in companions],
        known,
    )
    off_obs = []
    for s, ww, cp, tp in certified:
        if cp.flow.mode != "off":
            continue
        # during the off phase the spec-level trace reads t - t1 while
        # the implementation level is exactly zero
        t_mid = (ww.lo + (ww.hi if is_finite(ww.hi) else ww.lo + 1)) / 2
        y_impl = cp.flow.value("y", t_mid)
        y_spec = tp.flow.value("y", t_mid)
        off_obs.append(
            {
                "window": ww,
                "impl_level": y_impl,
                "spec_level": y_spec,
                "spec_level_is_t_minus_entry": y_spec == t_mid - cp.b,
                "impl_level_is_zero": y_impl == 0,
            }
        )
    stage3 = {
        "ok": ok3,
        "failures": failures,
        "off_phase_observations": off_obs,
        "discrepancy": None if ok3 else (
            "composition fails exactly where the published shut/on "
            "formulas fail; off and open phases certify exactly"
        ),
    }
    report["stages"]["iii"] = stage3
    report["ok"] = stage1["ok"] and stage2["ok"] and stage3["ok"]
    # every residual failure must be pinned on the published shut/on
    # formulas; anything else is a genuine chain failure
    documented3 = all(
        (s.truncated and c is s.configs[-1])
        or (ok2 and all(
            pc.flow.mode in ("shut", "on") for pc in pieces(c)
        ))
        for (s, c, _, _, _, ok1, ok2) in failures
    )
    phase = stage2["phase_certification"]
    documented2 = stage2["ok"] or (
        stage2["well_nested"]
        and all(phase.get(m, (0, 0))[1] == 0 for m in ("off", "open"))
        and all(phase.get(m, (1, 0))[0] == 0 for m in ("shut", "on"))
    )
    report["acceptable"] = stage1["ok"] and documented2 and (stage3["ok"] or documented3)
    if horizon < 3:
        report["horizon_bounded"] = "horizon shorter than one full valve cycle"
    return report


# ---------------------------------------------------------------------------
# named gallery fixtures

GALLERY_NAMES = (
    "tank-automaton",
    "tank-impl",
    "fig8-1",
    "fig8-2",
    "fig8-3",
    "example10",
    "fig6",
    "fig7",
    "fig11",
)


def _eq_relation() -> TimedStateRelation:
    return TimedStateRelation((Clause((parse_constraint("c_u = a_u"),)),))


# the TankParams fields each entry reads; the other entries read none
_READS = {
    "tank-automaton": ("epsilon", "zeta", "x0_samples"),
    "tank-impl": ("epsilon", "zeta", "x0_samples"),
    "example10": ("zeta",),
}


def gallery_fixture(name: str, **params) -> dict:
    """Built-in systems and counterexample layouts, loadable by name.

    An entry holds a standalone "system", or a pair ("concrete",
    "abstract", "relation", optionally "extra_abstract"), or both, and
    "delta" when it is laid out on a grid.  `params` are keywords of
    TankParams.make, which supplies the rest: they shape the tank
    systems, and zeta is the minimum dwell of example10.  A parameter
    the entry does not read raises ParamConstraintViolated rather than
    go unread."""
    if name not in GALLERY_NAMES:
        raise UnknownFixture(f"unknown fixture {name!r}")
    unread = sorted(set(params) - set(_READS.get(name, ())))
    if unread:
        raise ParamConstraintViolated(f"fixture {name} does not read {', '.join(unread)}")
    p = TankParams.make(**params)
    if name == "tank-automaton":
        # checked against itself under r39
        auto = build_tank_automaton(p)
        return {
            "system": auto,
            "concrete": auto,
            "abstract": auto,
            "relation": tank_relations(p)["r39"],
            "delta": Q(1),
        }
    if name == "tank-impl":
        return {"system": build_tank_impl(p)}
    if name == "fig8-1":
        # related abstract configuration blocks early: its end time
        # differs from the concrete one
        c = make_config("m", 0, 2, {"u": 0}, {"u": 1}, closed_hi=True)
        a = make_config("m", 0, 1, {"u": 0}, {"u": 1}, closed_hi=True)
        return {
            "concrete": ConfigGraph((c,), ((),), (0,)),
            "abstract": ConfigGraph((a,), ((),), (0,)),
            "relation": _eq_relation(),
            "delta": Q(1),
            "expected_hypothesis": "(70)",
        }
    if name == "fig8-2":
        # the related abstract state exists only later: isolated at rank 0
        c = make_config("m", 0, 2, {"u": 5}, {"u": 0}, closed_hi=True)
        a = make_config("m", 1, 2, {"u": 5}, {"u": 0}, closed_hi=True)
        return {
            "concrete": ConfigGraph((c,), ((),), (0,)),
            "abstract": ConfigGraph((a,), ((),), (0,)),
            "relation": _eq_relation(),
            "delta": Q(1),
            "extra_abstract": (TimefulState(State.make("m", {"u": 5}), 0),),
            "expected_hypothesis": "(69)",
        }
    if name == "fig8-3":
        # relation holds on the first abstract configuration but not on
        # its successor: boundary incompatibility
        c = make_config("m", 0, 2, {"u": 0}, {"u": 1}, closed_hi=True)
        a1 = make_config("m", 0, 1, {"u": 0}, {"u": 1})
        a2 = make_config("m", 1, 2, {"u": 6}, {"u": 1}, closed_hi=True)
        return {
            "concrete": ConfigGraph((c,), ((),), (0,)),
            "abstract": ConfigGraph((a1, a2), ((1,), ()), (0, 1)),
            "relation": _eq_relation(),
            "delta": Q(1),
            "expected_hypothesis": "(71)",
        }
    if name == "example10":
        c = make_config("m", 0, 2, {"u": 1}, {"u": 0}, closed_hi=True)
        return {
            "system": HybridTransitionSystem.from_explicit(("u",), p.zeta, (c,), (), (0,)),
            "delta": Q(1),
        }
    if name == "fig6":
        # intermediate trajectory shorter than both ends
        c = make_config("m", 0, 2, {"u": 0}, {"u": 0}, closed_hi=True)
        mid = make_config("m", 0, 1, {"u": 0}, {"u": 0}, closed_hi=True)
        top = make_config("m", 0, 2, {"u": 0}, {"u": 0}, closed_hi=True)
        return {
            "T": (trajectory_validate([c]),),
            "Tb": (trajectory_validate([mid]),),
            "Tbb": (trajectory_validate([top]),),
            "relation": _eq_relation(),
        }
    if name == "fig7":
        # overlapping but non-nested intervals
        c1 = make_config("m", 0, 3, {"u": 0}, {"u": 0})
        c2 = make_config("m", 3, 4, {"u": 0}, {"u": 0}, closed_hi=True)
        a1 = make_config("m", 0, 1, {"u": 0}, {"u": 0})
        a2 = make_config("m", 1, 4, {"u": 0}, {"u": 0}, closed_hi=True)
        return {
            "T": (trajectory_validate([c1, c2]),),
            "Tb": (trajectory_validate([a1, a2]),),
            "relation": _eq_relation(),
        }
    if name == "fig11":
        # abstract branch: one successor preserves the relation, the
        # other does not; the existential check passes, the universal
        # one fails
        c1 = make_config("m", 0, 1, {"u": 0}, {"u": 0})
        c2 = make_config("m", 1, 2, {"u": 0}, {"u": 0}, closed_hi=True)
        a1 = make_config("m", 0, 1, {"u": 0}, {"u": 0})
        a2 = make_config("m", 1, 2, {"u": 0}, {"u": 0}, closed_hi=True)
        a3 = make_config("m", 1, 2, {"u": 5}, {"u": 0}, closed_hi=True)
        return {
            "concrete": ConfigGraph((c1, c2), ((1,), ()), (0,)),
            "abstract": ConfigGraph((a1, a2, a3), ((1, 2), (), ()), (0,)),
            "relation": _eq_relation(),
        }
