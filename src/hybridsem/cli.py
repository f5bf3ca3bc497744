"""Batch command-line front end.

Systems and relations load from JSON files or by built-in fixture name;
every check prints a human report (or JSON with --json) and exits 0 on
pass, 1 on a verified failure with witness, 2 on bad input.  Rationals
serialize as "p/q" strings so reports round-trip exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import ExitStack
from fractions import Fraction

from .affine import ENDPOINT_SYMBOLS, LinExpr, read_rational
from .casestudy import TankParams, gallery_fixture, run_refinement_chain
from .discretize import hts_discretize, theorem6_check, theorem7_check
from .errors import HybridSemError, ParamConstraintViolated, ParseError, UnknownFixture
from .flow_config import pieces
from .galois import (
    FinitePoset,
    galois_laws_check,
    galois_relation_check,
    hom_connection,
    powerset_lattice,
)
from .homomorphism import StateHom, theorem1_check, theorem3_check
from .hts import HybridTransitionSystem, hts_from_json, hts_validate, semantics_generate
from .relation import config_related, relation_from_json
from .simulation import (
    bisim_check,
    greatest_simulation,
    preservation_check,
    sim_check,
    system_graph,
)
from .time_core import INF, Q, is_finite
from .trajectory import (
    grid_step, grid_times, timeful_sample, trajectory_csv, trajectory_eval, trajectory_timeline
)

PASS, FAIL, BADINPUT = 0, 1, 2


def _q(text):
    return read_rational(text, "command line")


def jsonable(x):
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)
    if isinstance(x, bool) or x is None or isinstance(x, (int, str)):
        return x
    if x is INF:
        return "inf"
    if isinstance(x, dict):
        return {str(jsonable(k)): jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if isinstance(x, (set, frozenset)):
        return sorted((jsonable(v) for v in x), key=repr)
    if hasattr(x, "to_dict"):
        return jsonable(x.to_dict())
    return repr(x)


def emit(doc, as_json: bool):
    if as_json:
        print(json.dumps(jsonable(doc), indent=2, sort_keys=True))
    else:
        _pretty(doc, 0)


def _pretty(doc, depth):
    pad = "  " * depth
    if isinstance(doc, dict):
        for k, v in doc.items():
            if isinstance(v, (dict, list, tuple, set, frozenset)) and v:
                print(f"{pad}{k}:")
                _pretty(v, depth + 1)
            else:
                print(f"{pad}{k}: {jsonable(v)}")
    elif isinstance(doc, (list, tuple, set, frozenset)):
        for v in doc:
            print(f"{pad}- {jsonable(v)}")
    else:
        print(f"{pad}{jsonable(doc)}")


# ---------------------------------------------------------------------------
# input: one registry lookup and one loader


def _params(args) -> dict:
    """The tank parameters given, as keywords of TankParams.make."""
    kw = {}
    if args.epsilon:
        kw["epsilon"] = _q(args.epsilon)
    if args.zeta:
        kw["zeta"] = _q(args.zeta)
    if args.x0:
        kw["x0_samples"] = tuple(_q(v) for v in args.x0.split(","))
    return kw


def _fixture(args):
    """The registry entry --fixture names (None without one); the entry
    refuses a tank parameter it does not read."""
    name = getattr(args, "fixture", None)
    return gallery_fixture(name, **_params(args)) if name else None


def _read(path, parse):
    """parse of the JSON at path, a decimal read as the Fraction it writes."""
    try:
        with open(path) as f:
            try:
                doc = json.load(f, parse_float=lambda text: read_rational(text, path))
            except RecursionError as exc:
                raise ParseError(f"{path}: JSON nested too deeply") from exc
        return parse(doc)
    except (OSError, json.JSONDecodeError, ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _write(*outputs):
    """Write each (path, text), every path opened first: a refused call writes nothing."""
    made = [path for path, _ in outputs if not os.path.exists(path)]
    try:
        with ExitStack() as stack:
            files = [stack.enter_context(open(path, "a")) for path, _ in outputs]
            for f, (_, text) in zip(files, outputs):
                f.truncate(0)
                f.write(text)
                f.flush()  # a path given twice ends with its last text
    except OSError as exc:
        for path in filter(os.path.exists, made):
            os.remove(path)
        raise ParseError(f"cannot write: {exc}") from exc
    for path, _ in outputs:
        print(f"wrote {path}")


# part of an input -> the file flag that gives it and that file's parser
_FILE_PARTS = {
    "system": ("system", hts_from_json),
    "concrete": ("system", hts_from_json),
    "abstract": ("abstract", hts_from_json),
    "relation": ("relation", relation_from_json),
}


def _load(args, *keys, **defaults) -> list:
    """The parts `keys` of a command's input.  Each comes from its flag
    if one is given (a file flag of _FILE_PARTS, else --delta or
    --horizon), otherwise from the --fixture entry, otherwise from
    `defaults`; input from files has delta 1.  A file named twice is
    read once, so a system checked against itself is one object.  The
    tank parameters shape a fixture, so a system source without
    --fixture refuses them rather than leave them unread."""
    if not getattr(args, "fixture", None) and any(k in _FILE_PARTS for k in keys):
        tank = [f for f in _TANK if getattr(args, f[2:], None)]
        if tank:
            raise ParseError(f"{', '.join(tank)} read only with --fixture")
    entry = _fixture(args)
    entry = dict(entry) if entry is not None else {"delta": Q(1)}
    read: dict = {}
    for k in keys:
        if k in _FILE_PARTS:
            flag, parse = _FILE_PARTS[k]
            path = getattr(args, flag, None)
            if path:
                if (path, parse) not in read:
                    read[path, parse] = _read(path, parse)
                entry[k] = read[path, parse]
        elif getattr(args, k, None):
            entry[k] = _q(getattr(args, k))
    missing = [k for k in keys if k not in entry and k not in defaults]
    if missing:
        if getattr(args, "fixture", None):
            raise ParseError(f"{args.fixture} has no {', '.join(missing)}")
        flags = dict.fromkeys(f"--{_FILE_PARTS[k][0]} FILE" for k in missing)
        raise ParseError(f"need {', '.join(flags)} or --fixture NAME")
    return [entry[k] if k in entry else defaults[k] for k in keys]


def _variables(side) -> set:
    if isinstance(side, HybridTransitionSystem):
        return set(side.variables)
    return {v for c in side.configs() for p in pieces(c) for v in p.flow.var_names()}


def _check_symbols(r, concrete, abstract):
    """Every symbol of r must be bound: t, an endpoint symbol, or c_<v>
    and a_<v> for a variable v of the concrete and the abstract side.  A
    clause naming any other symbol never holds, so a check could pass
    vacuously."""
    known = {"t", *ENDPOINT_SYMBOLS}
    known |= {f"c_{v}" for v in _variables(concrete)}
    known |= {f"a_{v}" for v in _variables(abstract)}
    for clause in r.clauses:
        for con in clause.constraints:
            unknown = sorted(con.symbols() - known)
            if unknown:
                raise ParseError(
                    f"relation symbol(s) {', '.join(unknown)} name no variable of the pair"
                )


def _pair(args, *more, **defaults) -> list:
    """Concrete and abstract configuration graphs (one graph when both
    sides are one system), the relation, the horizon, then `more`."""
    c, a, r, hz, *rest = _load(
        args, "concrete", "abstract", "relation", "horizon", *more, horizon=Q(30), **defaults
    )
    _check_symbols(r, c, a)
    G = system_graph(c, hz)
    return [G, G if a is c else system_graph(a, hz), r, hz, *rest]


# ---------------------------------------------------------------------------
# commands


def cmd_validate(args):
    h, hz = _load(args, "system", "horizon", horizon=Q(30))
    issues = hts_validate(h, horizon=hz)
    emit({"issues": issues, "ok": not issues}, args.json)
    return PASS if not issues else FAIL


def cmd_trajectories(args):
    h, hz = _load(args, "system", "horizon", horizon=Q(30))
    sem = semantics_generate(h, hz, depth=args.depth)
    out = []
    for s in sorted(sem.trajectories, key=repr):
        out.append(
            {
                "timeline": list(trajectory_timeline(s)),
                "truncated": s.truncated,
                "configs": [repr(c) for c in s.configs],
            }
        )
    emit({"count": len(out), "trajectories": out}, args.json)
    return PASS


def cmd_sample(args):
    h, delta, hz = _load(args, "system", "delta", "horizon", delta=Q(1), horizon=Q(30))
    sem = semantics_generate(h, hz)
    out = []
    for s in sorted(sem.trajectories, key=repr):
        trace = timeful_sample(s, delta, hz)
        out.append([{"state": repr(u.state), "rank": u.rank} for u in trace])
    emit({"delta": delta, "traces": out}, args.json)
    return PASS


def cmd_discretize(args):
    h, delta, hz = _load(args, "system", "delta", "horizon", delta=Q(1), horizon=Q(30))
    doc = hts_discretize(h, delta, hz).to_dict()
    if args.out:
        _write((args.out, json.dumps(jsonable(doc), indent=2, sort_keys=True)))
    else:
        emit(doc, args.json)
    return PASS


def _exit_code(rep) -> int:
    """A relation that relates no initial configuration says nothing
    about the concrete system, so a check passes only with init(56)."""
    init_ok, _ = rep.hypothesis_results["init(56)"]
    return PASS if rep.verdict and init_ok else FAIL


def cmd_check_sim(args):
    G, Gb, r, _ = _pair(args)
    rep = sim_check(r, G, Gb, mode="sync" if args.sync else "async")
    emit(rep.to_dict(), args.json)
    return _exit_code(rep)


def cmd_check_bisim(args):
    G, Gb, r, _ = _pair(args)
    rep = bisim_check(r, G, Gb)
    emit(rep.to_dict(), args.json)
    return _exit_code(rep)


def cmd_check_preservation(args):
    G, Gb, r, _ = _pair(args)
    rep = preservation_check(r, G, Gb)
    emit(rep.to_dict(), args.json)
    return _exit_code(rep)


def cmd_greatest_sim(args):
    G, Gb, r, _ = _pair(args)
    R = greatest_simulation(
        G.configs(), Gb.configs(), G.succ, Gb.succ,
        related=lambda c, cb: config_related(r, c, cb),
    )
    emit({"pairs": [[repr(a), repr(b)] for a, b in sorted(R, key=repr)],
          "count": len(R)}, args.json)
    return PASS


def _refinement(args) -> dict:
    (hz,) = _load(args, "horizon", horizon=Q(30))
    return run_refinement_chain(TankParams.make(**_params(args)), hz)


def cmd_check_refinement(args):
    rep = _refinement(args)
    doc = {
        "ok": rep["ok"],
        "acceptable": rep["acceptable"],
        "stage_i": rep["stages"]["i"]["ok"],
        "stage_ii": {
            "ok": rep["stages"]["ii"]["ok"],
            "well_nested": rep["stages"]["ii"]["well_nested"],
            "phase_certification": rep["stages"]["ii"]["phase_certification"],
            "discrepancy": rep["stages"]["ii"]["discrepancy"],
        },
        "stage_iii": {
            "ok": rep["stages"]["iii"]["ok"],
            "failures": len(rep["stages"]["iii"]["failures"]),
            "off_phase_observations": rep["stages"]["iii"]["off_phase_observations"],
            "discrepancy": rep["stages"]["iii"]["discrepancy"],
        },
    }
    emit(doc, args.json)
    return PASS if rep["acceptable"] else FAIL


def _theorem7(args):
    """Hypotheses (68)-(71), one discretization per distinct side, the
    discretized relation and the Milner check."""
    G, Gb, r, hz, delta, extra = _pair(args, "delta", "extra_abstract", extra_abstract=())
    hyp, ok, wit = theorem7_check(r, G, Gb, delta, hz, extra)
    violated = [k for k in ("(68)", "(69)", "(70)", "(71)") if hyp[k]]
    doc = {
        "milner": ok,
        "milner_witness": wit,
        "hypotheses_ok": hyp["ok"],
        "violated": violated,
        "witnesses": {k: hyp[k][:3] for k in violated},
    }
    return (PASS if ok and hyp["ok"] else FAIL), doc


def cmd_check_theorem(args):
    n = args.number
    flags = _COMMANDS["check-theorem"][1]
    given = [f for f in flags if f.startswith("--") and getattr(args, f[2:])]
    unread = [f for f in given if f not in _THEOREM_FLAGS[n]]
    if unread:
        raise ParseError(f"theorem {n} reads no {', '.join(unread)}")
    if n == 1:
        h, hz = _load(args, "system", "horizon", horizon=Q(30))
        if h.explicit is None:
            raise ParseError("theorem 1 needs a system in the explicit presentation, "
                             "not one given by mode schemas")
        ok, diff = theorem1_check(_default_hom(h), h, hz)
        emit({"theorem": 1, "ok": ok, "diff": diff}, args.json)
        return PASS if ok else FAIL
    if n == 3:
        h, delta, hz = _load(args, "system", "delta", "horizon", delta=Q(1), horizon=Q(30))
        sem = semantics_generate(h, hz)
        ok, wit = theorem3_check(_default_hom(h), sem.trajectories, delta, hz)
        emit({"theorem": 3, "ok": ok, "witness": wit}, args.json)
        return PASS if ok else FAIL
    if n == 5:
        rep = _refinement(args)
        st = rep["stages"]["iii"]
        emit(
            {
                "theorem": 5,
                "ok": st["ok"],
                "acceptable": rep["acceptable"],
                "failures": len(st["failures"]),
                "off_phase_observations": st["off_phase_observations"],
            },
            args.json,
        )
        return PASS if rep["acceptable"] else FAIL
    if n == 6:
        h, delta, hz = _load(args, "system", "delta", "horizon", delta=Q(1), horizon=Q(30))
        ok, diff, notes = theorem6_check(h, delta, hz)
        emit({"theorem": 6, "ok": ok, "diff": diff, "notes": notes}, args.json)
        return PASS if ok else FAIL
    code, doc = _theorem7(args)
    doc["theorem"] = 7
    emit(doc, args.json)
    return code


def _default_hom(h: HybridTransitionSystem) -> StateHom:
    """Projection onto the last declared variable (the level for the
    tank systems); modes kept."""
    keep = h.variables[-1]
    return StateHom.make(out_vars={keep: LinExpr.var(keep)})


def cmd_galois_laws(args):
    base = ("a", "b", "c")
    C = powerset_lattice(base)
    A = powerset_lattice(("x", "y"))
    conn = hom_connection(lambda v: "x" if v == "a" else "y", base)
    chain = FinitePoset.make(("0", "1", "2"), lambda u, v: u <= v)
    reports = {
        "hom_connection_laws": galois_laws_check(conn, C, A),
        "relation_laws": galois_relation_check(chain.leq, chain, chain),
    }
    ok = all(rep["ok"] for rep in reports.values())
    emit({"ok": ok, "reports": reports}, args.json)
    return PASS if ok else FAIL


def cmd_gallery(args):
    if args.check_theorem == 7:
        code, doc = _theorem7(args)
        doc["fixture"] = args.fixture
        emit(doc, args.json)
        return code
    emit({"fixture": args.fixture, "contents": sorted(_fixture(args))}, args.json)
    return PASS


def cmd_plot(args):
    h, hz = _load(args, "system", "horizon", horizon=Q(9))
    sem = semantics_generate(h, hz)
    trajs = sorted(sem.trajectories, key=repr)
    if not trajs:
        raise ParseError("no trajectories to plot")
    s = trajs[0]
    grid = grid_step(_q(args.grid or "1/10"))
    outputs = [(args.out or "plot.svg", render_svg(s, grid))]
    if args.csv:
        outputs.append((args.csv, trajectory_csv(s, grid)))
    _write(*outputs)
    return PASS


def render_svg(s, grid, width=640, panel_h=160, margin=40) -> str:
    """One panel per variable, time horizontal, mode changes as
    vertical rules."""
    names = pieces(s.configs[0])[0].flow.var_names()
    dur = s.duration if is_finite(s.duration) else Q(1)
    marks = [t for t in trajectory_timeline(s) if is_finite(t)]
    rows = {n: [] for n in names}
    for t in grid_times(dur, grid):
        st = trajectory_eval(s, t)
        if st is None or not hasattr(st, "var"):
            continue
        for n in names:
            rows[n].append((t, st.var(n)))
    H = margin + len(names) * (panel_h + margin)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{H}">',
        '<rect width="100%" height="100%" fill="white"/>',
    ]
    inner_w = width - 2 * margin

    def sx(t):
        return margin + float(t / dur) * inner_w if dur else margin

    for i, n in enumerate(names):
        top = margin + i * (panel_h + margin)
        pts = rows[n]
        vals = [v for _, v in pts] or [Q(0)]
        lo, hi = min(vals), max(vals)
        if lo == hi:
            lo, hi = lo - 1, hi + 1

        def sy(v):
            return top + panel_h - float((v - lo) / (hi - lo)) * panel_h

        parts.append(
            f'<rect x="{margin}" y="{top}" width="{inner_w}" height="{panel_h}" '
            'fill="none" stroke="black"/>'
        )
        parts.append(
            f'<text x="{margin}" y="{top - 6}" font-size="12">{n}'
            f" in [{lo}, {hi}]</text>"
        )
        for m in marks:
            x = sx(m)
            parts.append(
                f'<line x1="{x:.2f}" y1="{top}" x2="{x:.2f}" y2="{top + panel_h}" '
                'stroke="#999" stroke-dasharray="3,3"/>'
            )
        path = " ".join(
            f"{'M' if j == 0 else 'L'}{sx(t):.2f},{sy(v):.2f}"
            for j, (t, v) in enumerate(pts)
        )
        parts.append(f'<path d="{path}" fill="none" stroke="#1f6fb2" stroke-width="1.5"/>')
    parts.append("</svg>")
    return "\n".join(parts)


# argparse keywords of every flag; each subcommand takes only the flags
# its handler reads, and any other flag is a usage error (exit 2)
_FLAGS = {
    "--system": dict(metavar="FILE", help="system file; the concrete side of a pair"),
    "--abstract": dict(metavar="FILE", help="abstract system file"),
    "--relation": dict(metavar="FILE", help="timed state relation file"),
    "--fixture": dict(metavar="NAME", help="built-in fixture"),
    "--x0": dict(help="tank initial clock samples, a comma list (default 0,1,2)"),
    "--epsilon": dict(help="tank valve delay (default 1/4)"),
    "--zeta": dict(help="minimum dwell of the tank and example10 (default 1/100)"),
    "--horizon": dict(help="generation horizon"),
    "--delta": dict(help="grid step"),
    "--depth": dict(type=int, default=64, help="bound on configurations per trajectory"),
    "--grid": dict(help="sampling step of the plot (default 1/10)"),
    "--out": dict(metavar="FILE", help="output file"),
    "--csv": dict(metavar="FILE", help="also write the sampled trajectory as CSV"),
    "--sync": dict(action="store_true", help="synchronous simulation"),
    "--json": dict(action="store_true", help="one JSON document on stdout"),
    "--check-theorem": dict(type=int, choices=(7,), help="run theorem 7 on the fixture"),
    "number": dict(type=int, choices=(1, 3, 5, 6, 7)),
    "fixture": dict(metavar="name"),
}
_TANK = ("--x0", "--epsilon", "--zeta")
_SYSTEM = ("--system", "--fixture", *_TANK)
_PAIR = (*_SYSTEM, "--abstract", "--relation")
# the flags each theorem reads; giving another one is bad input
_THEOREM_FLAGS = {
    1: (*_SYSTEM, "--horizon", "--json"),
    3: (*_SYSTEM, "--delta", "--horizon", "--json"),
    5: (*_TANK, "--horizon", "--json"),
    6: (*_SYSTEM, "--delta", "--horizon", "--json"),
    7: (*_PAIR, "--delta", "--horizon", "--json"),
}
_COMMANDS = {
    "validate": (cmd_validate, (*_SYSTEM, "--horizon", "--json")),
    "trajectories": (cmd_trajectories, (*_SYSTEM, "--horizon", "--depth", "--json")),
    "sample": (cmd_sample, (*_SYSTEM, "--delta", "--horizon", "--json")),
    "discretize": (cmd_discretize, (*_SYSTEM, "--delta", "--horizon", "--out", "--json")),
    "check-sim": (cmd_check_sim, (*_PAIR, "--horizon", "--sync", "--json")),
    "check-bisim": (cmd_check_bisim, (*_PAIR, "--horizon", "--json")),
    "check-preservation": (cmd_check_preservation, (*_PAIR, "--horizon", "--json")),
    "greatest-sim": (cmd_greatest_sim, (*_PAIR, "--horizon", "--json")),
    "check-refinement": (cmd_check_refinement, (*_TANK, "--horizon", "--json")),
    "galois-laws": (cmd_galois_laws, ("--json",)),
    "plot": (cmd_plot, (*_SYSTEM, "--horizon", "--grid", "--out", "--csv")),
    "check-theorem": (cmd_check_theorem, ("number", *_PAIR, "--delta", "--horizon", "--json")),
    "gallery": (
        cmd_gallery, ("fixture", *_TANK, "--check-theorem", "--delta", "--horizon", "--json")
    ),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="hybridsem", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (handler, flags) in _COMMANDS.items():
        p = sub.add_parser(name)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(handler=handler)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ParseError, UnknownFixture, ParamConstraintViolated) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return BADINPUT
    except HybridSemError as exc:
        print(f"check error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return FAIL


if __name__ == "__main__":
    sys.exit(main())
