"""A second, independent decision of the pairs the benchmark's `sim` and
`chain` workloads decide.

The `sim` inputs of seeds 1 and 2 are written by perfbench/workloads.py,
which this test imports and does not change.  Every pair `overlapping`
yields on the two configuration graphs is decided twice: by
config_related (the window kernel, with its mode table and integer
points) and by a span cover over the same overlap built from
_clause_spans, _span_meet and _span_minus, which share no decision code
with the kernel.  `chain` is covered the same way on its stage-ii pairs:
each implementation trajectory against its automaton companion under
R53, whose clauses read the configurations' end points."""

import json
import sys
from fractions import Fraction as Q
from pathlib import Path

import pytest

from hybridsem.casestudy import TankParams, abstract_witness, build_tank_impl, tank_relations
from hybridsem.flow_config import overlapping
from hybridsem.hts import hts_from_json, semantics_generate
from hybridsem.relation import config_related, relation_from_json
from hybridsem.simulation import config_graph

from conftest import span_cover_related

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402


def _agree(r, pairs) -> tuple:
    """(pairs decided, pairs related); fails on the first disagreement."""
    related = 0
    for n, (c, d, w) in enumerate(pairs):
        kernel = config_related(r, c, d, w)
        assert kernel == span_cover_related(r, c, d, w), (n, c, d, w, kernel)
        related += kernel
    return n + 1, related


@pytest.mark.parametrize("seed", [1, 2])
def test_sim_workload_pairs_agree(seed, tmp_path):
    (call,) = workloads.build("sim", seed, tmp_path)
    args = dict(zip(call.args[1::2], call.args[2::2]))
    h = hts_from_json(json.loads(Path(args["--system"]).read_text()))
    r = relation_from_json(json.loads(Path(args["--relation"]).read_text()))
    G = config_graph(h, Q(args["--horizon"]))
    decided, related = _agree(r, overlapping(G.configs(), G.configs()))
    # r39 relates only some of the overlapping pairs: both verdicts occur
    assert decided > 4000 and 0 < related < decided


@pytest.mark.parametrize("seed", [1, 2])
def test_chain_workload_pairs_agree(seed, tmp_path):
    (call,) = workloads.build("chain", seed, tmp_path)
    args = dict(zip(call.args[1::2], call.args[2::2]))
    p = TankParams.make(x0_samples=[Q(x) for x in args["--x0"].split(",")])
    r = tank_relations(p)["R53"]
    sem = semantics_generate(build_tank_impl(p), Q(args["--horizon"]))
    pairs = [pair for s in sorted(sem.trajectories, key=repr)
             for pair in overlapping(s.configs, abstract_witness(s).configs)]
    decided, related = _agree(r, pairs)
    assert decided > 100 and 0 < related < decided
