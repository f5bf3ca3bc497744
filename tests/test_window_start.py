"""The window kernel decides the window start first.

_decisions yields the decision at a nonempty window's start lo = n/d,
each constraint by the sign of A*n + B*d, before it finds the other
decision points, so `all` stops there on a window refuted at its start.
On windows whose start lies outside dom(r), before a clause window or
under a clause reading B/E, and on point windows and empty [b, b)
windows, the for-all and exists verdicts must equal `all` and `any` of
the reference Fraction kernel's decisions (tests/test_window_kernel.py).
A count on the benchmark's seed-1 `sim` inputs pins how many windows
now reach the root finder."""

import json
import random
import sys
from fractions import Fraction as Q
from pathlib import Path

from test_window_kernel import _constraint, _piece, _q, _ref_decisions, _shifted_start

from hybridsem import relation
from hybridsem.affine import AffineConstraint, LinExpr
from hybridsem.hts import hts_from_json
from hybridsem.relation import (
    Clause,
    TimedStateRelation,
    _decisions,
    _endpoint_env,
    _forall_window_related,
    exists_window_related,
    relation_from_json,
)
from hybridsem.simulation import sim_check, system_graph
from hybridsem.time_core import INF, TimeInterval, interval_intersect

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

KINDS = ("outside domain", "before clause window", "B/E clause", "point", "empty")


def _later(rng, lo):
    """A window starting strictly after lo."""
    start = lo + abs(_q(rng, 0, 2)) + Q(1, 97)
    if rng.random() < 0.3:
        return TimeInterval(start, INF)
    return TimeInterval(start, start + abs(_q(rng, 0, 3)) + Q(1, 89), rng.random() < 0.5)


def _clause(rng, window=None, reads_ends=False):
    cons = tuple(_constraint(rng) for _ in range(rng.randint(0, 2)))
    dynamic = None
    if reads_ends:
        if rng.random() < 0.5:
            end = rng.choice(("B_c", "E_c", "B_a", "E_a"))
            cons += (AffineConstraint(LinExpr.make({"t": 1, end: -1}, _q(rng)),
                                      rng.choice(("<=", ">=", "<", ">"))),)
        else:
            dynamic = _shifted_start(_q(rng, -1, 2))
    return Clause(cons, window, rng.choice((None, None, "m", "n")),
                  rng.choice((None, None, "m", "n")), dynamic)


def _case(rng, kind):
    """(r, cp, dp, window) whose window start is of the given kind."""
    cp, dp = _piece(rng, rng.random() < 0.2), _piece(rng, rng.random() < 0.2)
    lo = max(cp.b, dp.b) + abs(_q(rng, 0, 1))
    if kind == "point":
        window = TimeInterval(lo, lo, True)
    elif kind == "empty":
        window = TimeInterval(lo, lo, False)
    elif rng.random() < 0.2:
        window = TimeInterval(lo, INF)
    else:
        window = TimeInterval(lo, lo + abs(_q(rng, 0, 3)) + Q(1, 97), rng.random() < 0.5)
    clauses = [_clause(rng, reads_ends=kind == "B/E clause" or rng.random() < 0.2)
               for _ in range(rng.randint(1, 3))]
    if kind == "before clause window":
        clauses[0] = _clause(rng, window=_later(rng, lo))
    domain = None
    if kind == "outside domain":
        domain = tuple(_later(rng, lo) for _ in range(rng.randint(1, 2)))
    elif rng.random() < 0.3:
        domain = (TimeInterval(abs(_q(rng, 0, 2)), INF),)
    return TimedStateRelation(tuple(clauses), domain), cp, dp, window


def test_verdicts_equal_all_and_any_of_the_reference_decisions():
    rng = random.Random(2311)
    verdicts = {kind: {"forall": [], "exists": []} for kind in KINDS}
    for kind in KINDS:
        for _ in range(300):
            r, cp, dp, window = _case(rng, kind)
            endpoints = _endpoint_env(cp, dp)
            want = list(_ref_decisions(r, cp, dp, window, endpoints))
            got = list(_decisions(r, cp, dp, window, endpoints))
            if got != want:  # only a pair where nothing compiles stops at its start
                assert got == [False] and not any(want) and r.domain is None
            if kind == "empty":
                assert got == want == []
            forall = _forall_window_related(r, cp, dp, window, endpoints)
            assert forall == all(want), (kind, r, cp, dp, window)
            shared = interval_intersect(cp.interval, dp.interval)
            shared = shared and interval_intersect(shared, window)
            some = shared is not None and any(_ref_decisions(r, cp, dp, shared, endpoints))
            assert exists_window_related(r, cp, dp, window) == some, (kind, r, cp, dp, window)
            verdicts[kind]["forall"].append(forall)
            verdicts[kind]["exists"].append(some)
    for kind in KINDS:
        for name, seen in verdicts[kind].items():
            both = seen.count(True) > 10 and seen.count(False) > 10
            # an empty window holds for all its (no) points and for none
            assert both or (kind == "empty" and set(seen) == {name == "forall"}), (kind, name)


def test_sim_workload_windows_reach_the_root_finder_only_past_their_start(tmp_path,
                                                                          monkeypatch):
    """On the seed-1 `sim` inputs, 2,068 of the 2,584 windows decided fail
    at their start, so only 516 find constraint roots (2,536 did when
    every point was found first, and 528 while init(56) decided its 12
    initial pairs again instead of reading the check's pair table)."""
    (call,) = workloads.build("sim", 1, tmp_path)
    args = dict(zip(call.args[1::2], call.args[2::2]))
    h = hts_from_json(json.loads(Path(args["--system"]).read_text()))
    r = relation_from_json(json.loads(Path(args["--relation"]).read_text()))
    G = system_graph(h, Q(args["--horizon"]))
    calls = {"windows": 0, "roots": 0}

    def counted(name, fn):
        def wrapper(*a, **k):
            calls[name] += 1
            return fn(*a, **k)
        return wrapper

    monkeypatch.setattr(relation, "_forall_window_related",
                        counted("windows", relation._forall_window_related))
    monkeypatch.setattr(relation, "_constraint_roots",
                        counted("roots", relation._constraint_roots))
    report = sim_check(r, G, G)
    assert not report.verdict
    assert calls == {"windows": 2584, "roots": 516}
