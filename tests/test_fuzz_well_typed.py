"""Well-typed fuzzed documents through `check-sim`, in process, with and
without --sync.

Unlike test_fuzz_inputs.py, every document has the right JSON types,
names only declared variables and modes, and writes its constraints over
the declared variables' c_/a_ symbols, so most calls get past the
loaders and into the checks.  Duration exits come from a small set, so
many pairs are well-nested.  Each call exits 0, 1 or 2 with no exception
escaping `cli.main`, an exit of 2 prints an input error, and where
--sync does not refuse the pair (59) it prints exactly what the
asynchronous check prints.  The pair table of each report the
asynchronous call makes (the overlapping id pairs and those it found
related) must equal a span-cover decision of every overlapping pair,
which shares no decision code with the window kernel."""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from hybridsem import cli, simulation
from hybridsem.cli import main
from hybridsem.flow_config import overlap_ids

from conftest import span_cover_related

NUMS = ("0", "1", "-1", "2", "1/2", "-3/2")
DWELLS = ("1", "1/2", "2", "3/2")
OPS = ("=", "<=", ">=")
HORIZONS = ("2", "3", "7/2")

num = st.sampled_from(NUMS)


@st.composite
def systems(draw):
    """A system document over u, or u and v, with one to three modes."""
    variables = draw(st.sampled_from((["u"], ["u", "v"])))
    names = [f"m{i}" for i in range(draw(st.integers(1, 3)))]
    var = st.sampled_from(variables)
    some_vars = st.dictionaries(var, num, max_size=len(variables))
    modes = []
    for name in names:
        mode = {"name": name, "rates": draw(some_vars)}
        kind = draw(st.sampled_from(("duration", "duration", "reach", "none")))
        if kind == "duration":
            mode["exit"] = {"type": "duration", "value": draw(st.sampled_from(DWELLS))}
        elif kind == "reach":
            mode["exit"] = {"type": "reach", "target": draw(num), "var": draw(var)}
        entry = draw(st.lists(st.builds("{} {} {}".format, var, st.sampled_from(OPS), num),
                              max_size=1))
        if entry:
            mode["entry"] = entry
        mode["terminal"] = draw(st.booleans())
        modes.append(mode)
    mode = st.sampled_from(names)
    edges = draw(st.lists(st.fixed_dictionaries({"src": mode, "dst": mode, "reset": some_vars}),
                          max_size=4))
    initial = draw(st.lists(
        st.fixed_dictionaries({"mode": mode,
                               "values": st.fixed_dictionaries({v: num for v in variables})}),
        min_size=1, max_size=2))
    return {"variables": variables, "zeta": "1/1000", "modes": modes, "edges": edges,
            "initial": initial}


@st.composite
def relations(draw, concrete, abstract):
    """A relation document over the two systems' c_ and a_ symbols, the
    time t and the configuration endpoints B_c, E_c, B_a and E_a."""
    sym = st.sampled_from([f"c_{v}" for v in concrete["variables"]]
                          + [f"a_{v}" for v in abstract["variables"]]
                          + ["t", "B_c", "E_c", "B_a", "E_a"])
    op = st.sampled_from(OPS)
    constraint = st.builds("{} {} {}".format, sym, op, sym | num)
    clauses = []
    for _ in range(draw(st.integers(1, 2))):
        clause = {"constraints": draw(st.lists(constraint, max_size=2))}
        for side, doc in (("concrete_mode", concrete), ("abstract_mode", abstract)):
            if draw(st.booleans()):
                clause[side] = draw(st.sampled_from([m["name"] for m in doc["modes"]] + [None]))
        if draw(st.integers(0, 3)) == 0:
            clause["window"] = {"lo": draw(st.sampled_from(("0", "1"))),
                                "hi": draw(st.sampled_from(("2", "inf"))),
                                "closed_hi": draw(st.booleans())}
        clauses.append(clause)
    return {"clauses": clauses}


@st.composite
def pairs(draw):
    concrete = draw(systems())
    abstract = concrete if draw(st.booleans()) else draw(systems())
    return concrete, abstract, draw(relations(concrete, abstract)), draw(st.sampled_from(HORIZONS))


def _run(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _branching(dwell, dropped=None) -> dict:
    """Two modes of the given dwell, each stepping to itself or the other
    and setting u to the target's index, without the edge dropped -> other."""
    return {"variables": ["u"], "zeta": "1/1000",
            "modes": [{"name": f"m{i}", "exit": {"type": "duration", "value": dwell}}
                      for i in range(2)],
            "edges": [{"src": f"m{i}", "dst": f"m{j}", "reset": {"u": str(j)}}
                      for i in range(2) for j in range(2) if not (i == dropped and j != i)],
            "initial": [{"mode": f"m{i}", "values": {"u": str(i)}} for i in range(2)]}


EQ_U = {"clauses": [{"constraints": ["c_u = a_u"]}]}


def _recording(reports: list):
    """sim_check, keeping each call's relation, graphs and report."""
    def sim_check(r, G, Gb, **kwargs):
        reports.append((r, G, Gb, simulation.sim_check(r, G, Gb, **kwargs)))
        return reports[-1][-1]
    return sim_check


def _assert_pair_table(r, G, Gb, report, pair):
    xs, ys = G.configs(), Gb.configs()
    overlaps = overlap_ids(xs, ys)
    assert list(report.pairs) == [(i, j) for i, j, _ in overlaps], pair
    related = {ij for ij, held in report.pairs.items() if held}
    cover = {(i, j) for i, j, w in overlaps if span_cover_related(r, xs[i], ys[j], w)}
    assert related == cover, (pair, sorted(related ^ cover))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(pairs())
# well-nested, with violations: --sync prints the asynchronous report
@example((_branching("1/2"), _branching("1", dropped=0), EQ_U, "3"))
# not well-nested: --sync refuses
@example((_branching("1"), _branching("1/2"), EQ_U, "3"))
def test_check_sim_with_and_without_sync(pair):
    concrete, abstract, relation, horizon = pair
    with tempfile.TemporaryDirectory() as tmp:
        files = []
        for name, doc in (("c", concrete), ("a", abstract), ("r", relation)):
            files.append(Path(tmp) / f"{name}.json")
            files[-1].write_text(json.dumps(doc))
        argv = ["check-sim", "--system", str(files[0]), "--abstract", str(files[1]),
                "--relation", str(files[2]), "--horizon", horizon, "--json"]
        reports = []
        with mock.patch.object(cli, "sim_check", _recording(reports)):
            plain = _run(argv)
        sync = _run(argv + ["--sync"])
    # a pair stopped before the check (FinalNotClosed, say) prints no report
    assert len(reports) == bool(plain[1]), (pair, plain)
    for report in reports:
        _assert_pair_table(*report, pair)
    for code, _, err in (plain, sync):
        assert code in (0, 1, 2), (pair, code, err)
        if code == 2:
            assert "input error:" in err, err
    if "SyncRequiresWellNesting" not in sync[2]:
        assert sync == plain, pair
