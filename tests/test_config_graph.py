"""The one configuration-graph builder: `config_graph` reads positions
(`reach`'s integer ids, or a trajectory's indices) and its graph keeps
ids, cut ones included, so it hashes no configuration, and the order of
its initial configurations is `reach`'s, whatever the hash seed."""

import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

from hybridsem.casestudy import (
    TankParams,
    abstract_witness,
    build_tank_automaton,
    build_tank_impl,
)
from hybridsem.flow_config import Configuration
from hybridsem.hts import reach, semantics_generate
from hybridsem.simulation import config_graph

from conftest import random_explicit
from simulation_parent import by_value
from test_dense_ids import _branching

TESTS = Path(__file__).resolve().parent


def _count_hashes(monkeypatch) -> Counter:
    """Count Configuration hashes, and Fraction hashes made outside one."""
    counts, inside = Counter(), []
    conf_hash, frac_hash = Configuration.__hash__, Fraction.__hash__

    def conf(self):
        counts["Configuration"] += 1
        inside.append(self)
        try:
            return conf_hash(self)
        finally:
            inside.pop()

    def frac(self):
        counts["Fraction"] += not inside
        return frac_hash(self)

    monkeypatch.setattr(Configuration, "__hash__", conf)
    monkeypatch.setattr(Fraction, "__hash__", frac)
    return counts


def test_building_hashes_no_configuration(monkeypatch):
    p = TankParams.make(x0_samples=(0, 1, 2))
    systems = [(build_tank_automaton(p), 12), (build_tank_impl(p), 24),
               (_branching(4), 6), (_branching(4, dropped=1), 6)]
    trajectories = [t for s in semantics_generate(build_tank_impl(p), 24).trajectories
                    for t in (s, abstract_witness(s))]
    trajectories += [t for h, hz in systems[2:] for t in semantics_generate(h, hz).trajectories]
    rng = random.Random(7)
    trajectories += [t for _ in range(10) for t in semantics_generate(random_explicit(rng), 20)
                     .trajectories]
    counts = _count_hashes(monkeypatch)
    graphs = [G for h, hz in systems for G in (config_graph(h, hz), config_graph(reach(h, hz)))]
    paths = [config_graph(t) for t in trajectories]
    monkeypatch.undo()
    assert counts["Fraction"] == 0
    assert counts["Configuration"] == 0
    assert all(G.cut for G in graphs) and any(not G.cut for G in paths)
    for t, G in zip(trajectories, paths):
        V = by_value(G)
        assert set(V.configs()) == set(t.configs) and V.initial == t.configs[:1]
        assert V.truncated == frozenset(t.configs[-1:] * t.truncated)
        assert [V.succ(c) for c in t.configs] == [(d,) for d in t.configs[1:]] + [()]


def test_initial_order_does_not_depend_on_the_hash_seed():
    code = ("import random\n"
            "from conftest import random_explicit\n"
            "from hybridsem.simulation import config_graph\n"
            "rng = random.Random(31)\n"
            "for _ in range(60):\n"
            "    h = random_explicit(rng, max_width=4, modes=('m', 'n'))\n"
            "    G = config_graph(h, 10)\n"
            "    print(G.initial, [G.nodes[i].flow.lines for i in G.initial])\n")
    rng = random.Random(31)
    systems = [random_explicit(rng, max_width=4, modes=("m", "n")) for _ in range(60)]
    assert sum(len(h.explicit.initial) > 2 for h in systems) >= 20
    want = "".join(f"{G.initial} {[G.nodes[i].flow.lines for i in G.initial]}\n"
                   for G in (config_graph(h, 10) for h in systems))
    path = os.pathsep.join(filter(None, (str(TESTS.parent / "src"), str(TESTS),
                                         os.environ.get("PYTHONPATH"))))
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == want
