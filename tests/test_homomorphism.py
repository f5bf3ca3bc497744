"""State homomorphisms: pointwise mapping, the induced system map,
and the two commutation results (generation and sampling)."""

import random
from fractions import Fraction as Q

from hybridsem.affine import LinExpr
from hybridsem.flow_config import State, make_config
from hybridsem.homomorphism import (
    StateHom,
    hom_config,
    hom_state,
    hom_system,
    hom_trajectory,
    theorem1_check,
    theorem3_check,
)
from hybridsem.discretize import theorem6_check
from hybridsem.hts import NO_TRAJECTORY, HybridTransitionSystem, semantics_generate
from hybridsem.trajectory import trajectory_timeline, trajectory_validate

from conftest import random_explicit, random_trajectory, rnd_q


def random_hom(rng):
    """Affine projection u -> v with an optional mode relabel."""
    mode_map = {"m": "mm"} if rng.random() < 0.5 else {}
    out = LinExpr.make({"u": rnd_q(rng, -2, 2)}, rnd_q(rng))
    return StateHom.make(mode_map, {"v": out})


def test_hom_state_affine_output():
    h = StateHom.make({"m": "n"}, {"v": LinExpr.make({"u": 2}, 1)})
    s = hom_state(h, State.make("m", {"u": Q(3)}))
    assert s.mode == "n" and s.var("v") == 7


def test_hom_config_pointwise():
    h = StateHom.make({}, {"v": LinExpr.make({"u": -1}, 5)})
    c = make_config("m", 0, 2, {"u": 1}, {"u": 2}, closed_hi=True)
    d = hom_config(h, c)
    for t in (Q(0), Q(1), Q(2)):
        assert d.state_at(t) == hom_state(h, c.state_at(t))
    # rates transform by the linear part alone
    assert dict(d.flow.rate)["v"] == -2


def test_hom_trajectory_keeps_shape():
    s = trajectory_validate(
        [
            make_config("m", 0, 1, {"u": 0}, {"u": 1}),
            make_config("m", 1, 2, {"u": 4}, {"u": 0}, closed_hi=True),
        ]
    )
    h = StateHom.make({}, {"v": LinExpr.make({"u": 1}, 0)})
    hs = hom_trajectory(h, s)
    assert trajectory_timeline(hs) == trajectory_timeline(s)
    assert hs.truncated == s.truncated


def test_generation_commutes_handcrafted():
    rng = random.Random(7)
    sys = random_explicit(rng)
    h = StateHom.make({"m": "n"}, {"v": LinExpr.make({"u": 3}, -1)})
    ok, diff = theorem1_check(h, sys, 10)
    assert ok, diff


def test_generation_commutes_randomized(rng):
    for _ in range(30):
        sys = random_explicit(rng)
        ok, diff = theorem1_check(random_hom(rng), sys, 10)
        assert ok, diff


def test_sampling_commutes_randomized(rng):
    for _ in range(30):
        trajs = [random_trajectory(rng) for _ in range(3)]
        ok, witness = theorem3_check(random_hom(rng), trajs, Q(1, 2))
        assert ok, witness


def test_image_system_generates_mapped_semantics():
    rng = random.Random(11)
    sys = random_explicit(rng)
    h = random_hom(rng)
    mapped = hom_system(h, sys)
    lhs = {hom_trajectory(h, s) for s in semantics_generate(sys, 10).trajectories}
    rhs = set(semantics_generate(mapped, 10).trajectories)
    assert lhs == rhs


def test_theorems_fail_on_a_system_without_trajectory():
    """The only initial configuration starts at 1, so reach drops it and
    the system has no trajectory: theorems 1, 3 and 6 fail with the note
    instead of holding vacuously."""
    sys = HybridTransitionSystem.from_explicit(
        ("u",), Q(1, 100), (make_config("m", 1, 3, {"u": 0}, {"u": 1}, closed_hi=True),),
        (), (0,))
    h = StateHom.make()
    ok, diff = theorem1_check(h, sys, 5)
    assert not ok and diff["note"] == NO_TRAJECTORY
    assert not diff["only_mapped"] and not diff["only_generated"]
    assert theorem3_check(h, semantics_generate(sys, 5).trajectories, 1, 5) == (
        False, NO_TRAJECTORY)
    ok, diff, notes = theorem6_check(sys, 1, 5)
    assert not ok and NO_TRAJECTORY in notes
