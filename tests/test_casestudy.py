"""Water-tank case study: exact timelines, the level-safety predicate,
the published relations and the three-stage refinement report."""

from fractions import Fraction as Q

import pytest

from hybridsem.casestudy import (
    GALLERY_NAMES,
    TankParams,
    abstract_witness,
    build_tank_automaton,
    build_tank_impl,
    gallery_fixture,
    run_refinement_chain,
    spec_predicate_check,
    spec_witness,
    tank_relations,
)
from hybridsem.errors import ParamConstraintViolated, UnknownFixture
from hybridsem.flow_config import make_config
from hybridsem.hts import semantics_generate
from hybridsem.relation import traj_related_timewise
from hybridsem.trajectory import config_var_ranges, trajectory_timeline, trajectory_validate


def test_param_constraints():
    with pytest.raises(ParamConstraintViolated):
        TankParams.make(epsilon=Q(1, 200))  # epsilon must exceed zeta
    with pytest.raises(ParamConstraintViolated):
        TankParams.make(x0_samples=(3,))
    with pytest.raises(ParamConstraintViolated):
        TankParams.make(epsilon=Q(5, 4), x0_samples=(1,))  # 3 - x0 <= 2*eps


def _traj(h, horizon, x0):
    for s in semantics_generate(h, horizon).trajectories:
        if s.configs[0].state_at(Q(0)).var("x") == x0:
            return s
    raise AssertionError(f"no trajectory with x0={x0}")


def test_automaton_timeline_exact():
    p = TankParams.make()
    h = build_tank_automaton(p)
    s = _traj(h, 8, Q(1))
    assert trajectory_timeline(s) == (0, 2, 3, 5, 6, 8)
    modes = [c.flow.mode for c in s.configs]
    assert modes == ["shut", "open", "shut", "open", "shut"]
    # level band of the first full cycle
    lo, hi = config_var_ranges(s.configs[0])["y"]
    assert (lo, hi) == (0, 2)


def test_automaton_peak_from_empty_tank():
    p = TankParams.make()
    s = _traj(build_tank_automaton(p), 5, Q(0))
    lo, hi = config_var_ranges(s.configs[0])["y"]
    assert hi == 3  # filling from empty reaches the brim exactly


def test_impl_phase_layout():
    p = TankParams.make()
    s = _traj(build_tank_impl(p), 3, Q(1))
    modes = [c.flow.mode for c in s.configs[:4]]
    assert modes == ["off", "shut", "on", "open"]
    assert trajectory_timeline(s)[:5] == (0, Q(1, 4), Q(7, 4), 2, Q(29, 10))
    # the controller's level peak in the first cycle
    lo, hi = config_var_ranges(s.configs[1])["y"]
    assert hi == Q(9, 5)


def test_spec_predicate_accepts_automaton():
    p = TankParams.make()
    for s in semantics_generate(build_tank_automaton(p), 8).trajectories:
        ok, viol = spec_predicate_check(spec_witness(s), p.zeta)
        assert ok, viol


def test_spec_predicate_violations_labelled():
    zeta = Q(1, 100)
    over = trajectory_validate(
        [make_config("shut", 0, 1, {"y": Q(7, 2)}, {"y": 1}, closed_hi=True)]
    )
    ok, viol = spec_predicate_check(over, zeta)
    assert not ok and viol[0][0] == "a"
    stuck = trajectory_validate(
        [make_config("off", 0, Q(1, 10), {"y": 0}, {"y": 0}, closed_hi=True)]
    )
    ok, viol = spec_predicate_check(stuck, zeta)
    assert not ok and any(tag == "d" for tag, _, _ in viol)
    wrong_rate = trajectory_validate(
        [make_config("open", 0, 1, {"y": 2}, {"y": 1}, closed_hi=True)]
    )
    ok, viol = spec_predicate_check(wrong_rate, zeta)
    assert not ok and any(tag in ("a", "b") for tag, _, _ in viol)


def test_abstract_witness_is_automaton_shaped():
    p = TankParams.make()
    s = _traj(build_tank_impl(p), 3, Q(1))
    w = abstract_witness(s)
    assert [c.flow.mode for c in w.configs[:2]] == ["shut", "open"]
    # each companion phase starts where the previous ends
    for a, b in zip(w.configs, w.configs[1:]):
        assert a.e == b.b
    # the open phase carries the concrete peak level
    assert w.configs[1].state_at(w.configs[1].b).var("y") == Q(9, 5)


def test_witness_related_under_mode_level_relation():
    p = TankParams.make()
    r39 = tank_relations(p)["r39"]
    s = _traj(build_tank_automaton(p), 8, Q(1))
    assert traj_related_timewise(r39, s, spec_witness(s))


def test_refinement_chain_report_shape():
    p = TankParams.make(x0_samples=(1,))
    rep = run_refinement_chain(p, 6)
    assert rep["stages"]["i"]["ok"]
    # published shut/on formulas fail exactly; off/open certify
    assert not rep["ok"]
    assert rep["acceptable"]
    phase = rep["stages"]["ii"]["phase_certification"]
    assert phase["off"][1] == 0 and phase["open"][1] == 0
    assert phase["shut"][0] == 0 and phase["on"][0] == 0
    assert rep["stages"]["ii"]["well_nested"]
    assert rep["stages"]["ii"]["discrepancy"]
    for obs in rep["stages"]["iii"]["off_phase_observations"]:
        assert obs["impl_level_is_zero"] and obs["spec_level_is_t_minus_entry"]


def test_gallery_names_covered():
    for name in GALLERY_NAMES:
        assert gallery_fixture(name)
    with pytest.raises(UnknownFixture):
        gallery_fixture("nope")


def test_gallery_refuses_parameters_an_entry_does_not_read():
    """The tank systems read all three parameters and example10 reads
    zeta; any other parameter given to an entry is refused."""
    auto = gallery_fixture("tank-automaton", x0_samples=(Q(1),), epsilon=Q(1, 8))
    assert auto["system"].initial == build_tank_automaton(
        TankParams.make(x0_samples=(1,), epsilon=Q(1, 8))).initial
    assert gallery_fixture("tank-impl", zeta=Q(1, 50))["system"].zeta == Q(1, 50)
    assert gallery_fixture("example10", zeta=Q(1, 50))["system"].zeta == Q(1, 50)
    for name, params in (("example10", {"x0_samples": (1,)}), ("example10", {"epsilon": Q(1, 8)}),
                         ("fig11", {"x0_samples": (1,)}), ("fig8-1", {"zeta": Q(1, 50)})):
        with pytest.raises(ParamConstraintViolated):
            gallery_fixture(name, **params)
    with pytest.raises(UnknownFixture):
        gallery_fixture("nope", zeta=Q(1, 50))
