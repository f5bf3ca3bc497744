"""Each refinement-chain pair is decided once per call.

Stage ii's `sim_check` decides every overlapping pair of an
implementation trajectory and its automaton companion under R53, and
its report keeps the verdicts as a pair table.  init(56), the phase
certification and stage iii's R53 windows read that table: a pair found
related holds on every window of its overlap, so only the windows of
pairs found unrelated are decided again, which keeps stage iii's
failures as they were.

The window kernel `relation._forall_window_related` is wrapped here in
every module that binds it, as perfbench/tracer.py wraps it, and each
window is labelled by the check that asked for it.  The benchmark's
inputs are written by perfbench/workloads.py, which this test imports
and does not change.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import hybridsem
from hybridsem import casestudy, cli, relation, simulation

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402

MODULES = (hybridsem, casestudy, cli, relation, simulation)
# the check each window is asked for, innermost last
LABELS = (("sim_check", "ii"), ("_related_pairs", "ii pairs"), ("_initialized", "init"),
          ("compose_check", "iii"))


def _wrap_everywhere(monkeypatch, fn, wrapper):
    for mod in MODULES:
        for key, value in list(vars(mod).items()):
            if value is fn:
                monkeypatch.setattr(mod, key, wrapper)


def _windows(monkeypatch, argv) -> list:
    """Run the CLI call; each window the kernel decided, as (labels, r,
    first argument of the innermost labelled call, key, verdict), the key
    being the relation, the piece pair and the window."""
    windows, active = [], []
    kernel = relation._forall_window_related

    def window(r, cp, dp, w, endpoints):
        verdict = kernel(r, cp, dp, w, endpoints)
        names = tuple(name for name, _ in active)
        owner = active[-1][1] if active else None
        windows.append((names, r, owner, (id(r), id(cp), id(dp), w), verdict))
        return verdict

    def labelled(fn, name):
        def call(*args, **kwargs):
            active.append((name, args[0]))
            try:
                return fn(*args, **kwargs)
            finally:
                active.pop()
        return call

    _wrap_everywhere(monkeypatch, kernel, window)
    for attr, name in LABELS:
        fn = getattr(simulation, attr)
        _wrap_everywhere(monkeypatch, fn, labelled(fn, name))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(list(argv)) in (0, 1)
    return windows


def test_chain_decides_each_stage_ii_window_once(monkeypatch, tmp_path):
    (call,) = workloads.build("chain", 1, tmp_path)
    windows = _windows(monkeypatch, call.args)
    stage_ii = {key: verdict for names, _, _, key, verdict in windows
                if names[-1:] == ("ii pairs",)}
    r53 = {id(owner) for names, _, owner, _, _ in windows if names[-1:] == ("ii pairs",)}
    assert len(r53) == 1 and len(stage_ii) > 100
    # init(56) and the phase certification read the table: no window at all
    assert not [w for w in windows if "init" in w[0]]
    assert not [w for w in windows if not w[0] and id(w[1]) in r53]
    # stage iii asks R53 only about pairs stage ii found unrelated
    again = [stage_ii.get(key) for names, r, owner, key, _ in windows
             if names == ("iii",) and r is owner]
    assert again and None not in again and not any(again)
    bench = json.loads((ROOT / "BENCH_chain_decide_once.json").read_text())
    assert len(windows) == bench["counts_seed1"]["chain"]["relation.window.calls"]["after"]


def test_sim_init_decides_no_window(monkeypatch, tmp_path):
    (call,) = workloads.build("sim", 1, tmp_path)
    inits = []
    initialized = simulation._initialized
    monkeypatch.setattr(simulation, "_initialized",
                        lambda *args: inits.append(initialized(*args)) or inits[-1])
    windows = _windows(monkeypatch, call.args)
    assert inits and windows
    assert not [w for w in windows if "init" in w[0]]
