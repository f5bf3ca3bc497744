"""The synchronous simulation check (52) decided by the asynchronous
transfer.

sim_check decides every concrete step by sim_transfer in both modes;
mode "sync" adds only the refusal of universes that fail (59).
simulation_parent.py keeps the step rule sync mode had before,
`_sync_step_ok`.  On well-nested pairs of every kind the library builds
(layered explicit systems at step 1/2 against step 1, bounded and
unbounded; branching schema pairs cut mid-configuration; the gallery;
the refinement chain's per-trajectory graphs under R53) each step of a
related pair must get the reference's decision, and each sync report the
reference's report, which is also the asynchronous one."""

import random
from collections import Counter
from fractions import Fraction as Q

import pytest

import simulation_parent as ref
from hybridsem.affine import parse_constraint
from hybridsem.casestudy import (
    TankParams,
    abstract_witness,
    build_tank_impl,
    gallery_fixture,
    tank_relations,
)
from hybridsem.errors import SyncRequiresWellNesting
from hybridsem.flow_config import make_config, overlapping
from hybridsem.hts import HybridTransitionSystem, semantics_generate
from hybridsem.relation import Clause, TimedStateRelation, config_related
from hybridsem.simulation import config_graph, sim_check, sim_transfer
from hybridsem.time_core import INF

from conftest import rnd_q
from test_dense_ids import _branching

MODES = ("m", "n")


def _layered(rng, step, levels, unbounded):
    """Explicit system over u: level i spans [i*step, (i+1)*step) with one
    to three configurations in modes m and n, each joined to a nonempty
    subset of the next level; the last level is closed, or unbounded."""
    configs, layers = [], []
    for i in range(levels):
        last = i == levels - 1
        hi = INF if last and unbounded else (i + 1) * step
        layers.append(list(range(len(configs), len(configs) + rng.randint(1, 3))))
        configs += [make_config(rng.choice(MODES), i * step, hi, {"u": rnd_q(rng)},
                                {"u": rnd_q(rng)}, closed_hi=last and not unbounded)
                    for _ in layers[-1]]
    edges = [(a, b) for below, above in zip(layers, layers[1:]) for a in below
             for b in ([b for b in above if rng.random() < 0.6] or [rng.choice(above)])]
    return HybridTransitionSystem.from_explicit(("u",), Q(1, 1000), tuple(configs), tuple(edges),
                                                tuple(layers[0]))


def _near(rng) -> TimedStateRelation:
    """u within seeded bounds of each other in equal modes, or a late
    clause window in any modes."""
    k1, k2 = rng.randint(0, 3), rng.randint(0, 3)
    bounds = (parse_constraint(f"c_u - a_u <= {k1}"), parse_constraint(f"a_u - c_u <= {k2}"))
    return TimedStateRelation((
        *(Clause(bounds, concrete_mode=m, abstract_mode=m) for m in MODES),
        Clause((parse_constraint(f"t >= {rng.randint(1, 4)}"),)),
    ))


def _compare(r, G, Gb, seen):
    """The sync report against the reference's and the asynchronous one,
    then each step of each related pair against the reference's rule."""
    report = sim_check(r, G, Gb, mode="sync")
    assert report.hypothesis_results["well_nested(59)"] == (True, None)
    G_ref, Gb_ref = ref.by_value(G), ref.by_value(Gb)
    assert report == ref.sim_check(r, G_ref, Gb_ref, mode="sync") == sim_check(r, G, Gb)
    related = lambda c, d: config_related(r, c, d)
    for c, cb, _ in overlapping(G.configs(), Gb.configs()):
        if related(c, cb):
            for c_prime in G_ref.succ(c):
                want = ref._sync_step_ok(related, Gb_ref, c_prime, cb)
                assert bool(sim_transfer(related, Gb_ref.succ, c, cb, c_prime)) == want, \
                    (c, cb, c_prime)
                seen[want] += 1
    seen["violations"] += bool(report.violations)


def _assert_coverage(seen, steps):
    assert seen[True] + seen[False] >= steps and seen[True] and seen[False], seen


@pytest.mark.parametrize("unbounded", [False, True])
def test_layered_explicit_pairs(unbounded):
    rng = random.Random(2201 + unbounded)
    seen = Counter()
    for _ in range(200):
        levels = rng.randint(1, 4)
        h, hb = _layered(rng, Q(1, 2), 2 * levels, unbounded), _layered(rng, 1, levels, unbounded)
        horizon = rng.choice((Q(3, 2), Q(7, 4), 3, 10))
        _compare(_near(rng), config_graph(h, horizon), config_graph(hb, horizon), seen)
    _assert_coverage(seen, 500)
    assert seen["violations"], seen


@pytest.mark.parametrize("horizon", [3, Q(7, 2), 6])
def test_branching_pairs(horizon):
    eq = TimedStateRelation((Clause((parse_constraint("c_u = a_u"),)),))
    seen = Counter()
    for k in range(2, 5):
        for dropped in (None, 0, k - 1):
            G = config_graph(_branching(k, dwell=Q(1, 2)), horizon)
            _compare(eq, G, config_graph(_branching(k, dropped), horizon), seen)
    _assert_coverage(seen, 250)


def test_gallery_pairs():
    seen = Counter()
    for name in ("fig11", "tank-automaton"):
        fx = gallery_fixture(name, **({"x0_samples": (1,)} if name == "tank-automaton" else {}))
        G, Gb = (config_graph(fx[side], 9) for side in ("concrete", "abstract"))
        _compare(fx["relation"], G, Gb, seen)
    assert seen[True] >= 6, seen
    # the other gallery pairs fail (59): both rules refuse them alike
    for name in ("fig8-1", "fig8-2", "fig8-3"):
        fx = gallery_fixture(name)
        G, Gb = fx["concrete"], fx["abstract"]
        with pytest.raises(SyncRequiresWellNesting) as got:
            sim_check(fx["relation"], G, Gb, mode="sync")
        with pytest.raises(SyncRequiresWellNesting) as want:
            ref.sim_check(fx["relation"], ref.by_value(G), ref.by_value(Gb), mode="sync")
        assert str(got.value) == str(want.value)


def test_refinement_chain_graphs():
    """Stage ii of the refinement chain: each implementation trajectory
    against its automaton-shaped companion under R53."""
    seen = Counter()
    for x0s, horizon in (((0, Q(1, 2), 1), 12), ((Q(3, 16), Q(21, 16), Q(37, 16)), 24)):
        p = TankParams.make(x0_samples=x0s)
        sem = semantics_generate(build_tank_impl(p), horizon)
        for s in sorted(sem.trajectories, key=repr):
            G, Gb = config_graph(s), config_graph(abstract_witness(s))
            _compare(tank_relations(p)["R53"], G, Gb, seen)
    _assert_coverage(seen, 60)
    assert seen["violations"], seen


def test_unknown_mode_is_refused():
    fx = gallery_fixture("fig11")
    for mode in ("Sync", "synchronous", ""):
        with pytest.raises(ValueError, match="unknown mode"):
            sim_check(fx["relation"], fx["concrete"], fx["abstract"], mode=mode)
