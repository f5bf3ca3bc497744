"""Batch command-line front end.

Systems and relations load from JSON files or by built-in fixture name;
every check prints a human report (or JSON with --json) and exits 0 on
pass, 1 on a verified failure with witness, 2 on bad input.  Rationals
serialize as "p/q" strings so reports round-trip exactly.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .casestudy import (
    GALLERY_NAMES,
    TankParams,
    build_tank_automaton,
    build_tank_impl,
    gallery_fixture,
    run_refinement_chain,
    tank_relations,
)
from .discretize import (
    discretization_hypotheses,
    hts_discretize,
    milner_sim_check,
    relation_discretize,
    theorem6_check,
    timeful_sample,
)
from .errors import HybridSemError, ParamConstraintViolated, ParseError, UnknownFixture
from .flow_config import pieces
from .galois import (
    FinitePoset,
    galois_laws_check,
    galois_relation_check,
    hom_connection,
    powerset_lattice,
    relation_to_connection,
)
from .homomorphism import StateHom, theorem1_check, theorem3_check
from .hts import HybridTransitionSystem, hts_from_json, hts_validate, semantics_generate
from .relation import relation_from_json
from .simulation import (
    bisim_check,
    config_graph,
    greatest_simulation,
    preservation_check,
    sim_check,
)
from .time_core import INF, Q, is_finite
from .trajectory import grid_step, trajectory_csv, trajectory_timeline

PASS, FAIL, BADINPUT = 0, 1, 2


def _q(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {text!r}: {exc}") from exc


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


def _params(args) -> TankParams:
    kw = {}
    if getattr(args, "epsilon", None):
        kw["epsilon"] = _q(args.epsilon)
    if getattr(args, "zeta", None):
        kw["zeta"] = _q(args.zeta)
    if getattr(args, "x0", None):
        kw["x0_samples"] = tuple(_q(v) for v in args.x0.split(","))
    return TankParams.make(**kw)


def _load_system(args, which="system"):
    path = getattr(args, which.replace("-", "_"), None)
    if path:
        try:
            with open(path) as f:
                return hts_from_json(json.load(f))
        except (OSError, json.JSONDecodeError, KeyError) as exc:
            raise ParseError(f"{path}: {exc}") from exc
    name = getattr(args, "fixture", None)
    if not name:
        raise ParseError(f"need --{which} FILE or --fixture NAME")
    return _fixture_system(name, args)


def _fixture_system(name, args):
    p = _params(args)
    if name in ("tank", "tank-automaton"):
        return build_tank_automaton(p)
    if name == "tank-impl":
        return build_tank_impl(p)
    short = name.split("/", 1)[1] if name.startswith("gallery/") else name
    fx = gallery_fixture(short, zeta=p.zeta)
    if "system" in fx:
        return fx["system"]
    raise UnknownFixture(f"{name} is not a standalone system")


def _load_relation(args):
    if getattr(args, "relation", None):
        try:
            with open(args.relation) as f:
                return relation_from_json(json.load(f))
        except (OSError, json.JSONDecodeError, KeyError) as exc:
            raise ParseError(f"{args.relation}: {exc}") from exc
    raise ParseError("need --relation FILE")


def _horizon(args, default=30):
    return _q(args.horizon) if getattr(args, "horizon", None) else Q(default)


def _graph_pair(args):
    """Concrete/abstract config graphs plus relation, from files or a
    gallery fixture."""
    name = getattr(args, "fixture", None)
    if name:
        short = name.split("/", 1)[1] if name.startswith("gallery/") else name
        fx = gallery_fixture(short)
        if "concrete" in fx:
            return fx["concrete"], fx["abstract"], fx["relation"], fx
        raise UnknownFixture(f"{name} has no concrete/abstract pair")
    h = _load_system(args, "system")
    hb = _load_system(args, "abstract")
    r = _load_relation(args)
    hz = _horizon(args)
    return (
        config_graph(semantics_generate(h, hz)),
        config_graph(semantics_generate(hb, hz)),
        r,
        None,
    )


# ---------------------------------------------------------------------------
# commands


def cmd_validate(args):
    h = _load_system(args)
    issues = hts_validate(h, horizon=_horizon(args))
    emit({"issues": issues, "ok": not issues}, args.json)
    return PASS if not issues else FAIL


def cmd_trajectories(args):
    h = _load_system(args)
    sem = semantics_generate(h, _horizon(args), depth=args.depth)
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
    h = _load_system(args)
    delta = _q(args.delta or "1")
    hz = _horizon(args)
    sem = semantics_generate(h, hz)
    out = []
    for s in sorted(sem.trajectories, key=repr):
        trace = timeful_sample(s, delta, hz)
        out.append([{"state": repr(u.state), "rank": u.rank} for u in trace])
    emit({"delta": delta, "traces": out}, args.json)
    return PASS


def cmd_discretize(args):
    h = _load_system(args)
    d = hts_discretize(h, _q(args.delta or "1"), _horizon(args))
    doc = d.to_dict()
    if args.out:
        with open(args.out, "w") as f:
            json.dump(jsonable(doc), f, indent=2, sort_keys=True)
        print(f"wrote {args.out}")
    else:
        emit(doc, args.json)
    return PASS


def cmd_check_sim(args):
    G, Gb, r, _ = _graph_pair(args)
    rep = sim_check(r, G, Gb, mode="sync" if args.sync else "async")
    emit(rep.to_dict(), args.json)
    return PASS if rep.verdict else FAIL


def cmd_check_bisim(args):
    G, Gb, r, _ = _graph_pair(args)
    rep = bisim_check(r, G, Gb)
    emit(rep.to_dict(), args.json)
    return PASS if rep.verdict else FAIL


def cmd_check_preservation(args):
    G, Gb, r, _ = _graph_pair(args)
    rep = preservation_check(r, G, Gb)
    emit(rep.to_dict(), args.json)
    return PASS if rep.verdict else FAIL


def cmd_greatest_sim(args):
    G, Gb, r, _ = _graph_pair(args)
    from .relation import config_related

    R = greatest_simulation(
        G.configs(), Gb.configs(), G.succ, Gb.succ,
        related=lambda c, cb: config_related(r, c, cb),
    )
    emit({"pairs": [[repr(a), repr(b)] for a, b in sorted(R, key=repr)],
          "count": len(R)}, args.json)
    return PASS


def cmd_check_refinement(args):
    p = _params(args)
    rep = run_refinement_chain(p, _horizon(args))
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


def _run_theorem7(args):
    name = getattr(args, "fixture", None)
    if name:
        short = name.split("/", 1)[1] if name.startswith("gallery/") else name
        if short.startswith("tank"):
            p = _params(args)
            auto = build_tank_automaton(p)
            r = tank_relations(p)["r39"]
            delta = _q(args.delta or "1")
            hz = _horizon(args, 9)
            hyp = discretization_hypotheses(r, auto, auto, delta, hz)
            d1 = hts_discretize(auto, delta, hz)
            R = relation_discretize(r, delta, d1, d1)
            ok, wit = milner_sim_check(R, d1, d1)
        else:
            fx = gallery_fixture(short)
            missing = [k for k in ("concrete", "abstract", "relation", "delta") if k not in fx]
            if missing:
                raise UnknownFixture(f"{short} has no {', '.join(missing)} for theorem 7")
            delta = fx["delta"]
            hyp = discretization_hypotheses(
                fx["relation"], fx["concrete"], fx["abstract"], delta, None
            )
            d1 = hts_discretize(fx["concrete"], delta)
            d2 = hts_discretize(fx["abstract"], delta)
            R = relation_discretize(
                fx["relation"], delta, d1, d2, fx.get("extra_abstract", ())
            )
            ok, wit = milner_sim_check(R, d1, d2)
    else:
        h = _load_system(args, "system")
        hb = _load_system(args, "abstract")
        r = _load_relation(args)
        delta = _q(args.delta or "1")
        hz = _horizon(args)
        hyp = discretization_hypotheses(r, h, hb, delta, hz)
        d1 = hts_discretize(h, delta, hz)
        d2 = hts_discretize(hb, delta, hz)
        R = relation_discretize(r, delta, d1, d2)
        ok, wit = milner_sim_check(R, d1, d2)
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
    if n == 1:
        h = _load_system(args)
        if h.explicit is None:
            raise ParseError("theorem 1 needs a system in the explicit presentation, "
                             "not one given by mode schemas")
        hom = _default_hom(h)
        ok, diff = theorem1_check(hom, h, _horizon(args))
        doc = {"theorem": 1, "ok": ok, "diff": diff}
        emit(doc, args.json)
        return PASS if ok else FAIL
    if n == 3:
        h = _load_system(args)
        hom = _default_hom(h)
        sem = semantics_generate(h, _horizon(args))
        ok, wit = theorem3_check(hom, sem.trajectories, _q(args.delta or "1"), _horizon(args))
        emit({"theorem": 3, "ok": ok, "witness": wit}, args.json)
        return PASS if ok else FAIL
    if n == 5:
        p = _params(args)
        rep = run_refinement_chain(p, _horizon(args))
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
        h = _load_system(args)
        ok, diff, notes = theorem6_check(h, _q(args.delta or "1"), _horizon(args))
        emit({"theorem": 6, "ok": ok, "diff": diff, "notes": notes}, args.json)
        return PASS if ok else FAIL
    if n == 7:
        code, doc = _run_theorem7(args)
        doc["theorem"] = 7
        emit(doc, args.json)
        return code
    raise ParseError(f"no theorem check numbered {n}")


def _default_hom(h: HybridTransitionSystem) -> StateHom:
    """Projection onto the last declared variable (the level for the
    tank systems); modes kept."""
    from .affine import LinExpr

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
    name = args.name
    if name not in GALLERY_NAMES:
        raise UnknownFixture(name)
    if args.check_theorem == 7:
        setattr(args, "fixture", name)
        code, doc = _run_theorem7(args)
        doc["fixture"] = name
        emit(doc, args.json)
        return code
    fx = gallery_fixture(name)
    emit({"fixture": name, "contents": sorted(fx.keys())}, args.json)
    return PASS


def cmd_plot(args):
    h = _load_system(args)
    hz = _horizon(args, 9)
    sem = semantics_generate(h, hz)
    trajs = sorted(sem.trajectories, key=repr)
    if not trajs:
        raise ParseError("no trajectories to plot")
    s = trajs[0]
    grid = grid_step(_q(args.grid or "1/10"))
    out = args.out or "plot.svg"
    svg = render_svg(s, grid)
    with open(out, "w") as f:
        f.write(svg)
    print(f"wrote {out}")
    if args.csv:
        with open(args.csv, "w") as f:
            f.write(trajectory_csv(s, grid))
        print(f"wrote {args.csv}")
    return PASS


def render_svg(s, grid, width=640, panel_h=160, margin=40) -> str:
    """One panel per variable, time horizontal, mode changes as
    vertical rules."""
    from .trajectory import trajectory_eval

    names = pieces(s.configs[0])[0].flow.var_names()
    dur = s.duration
    dur = dur if is_finite(dur) else Q(1)
    times = []
    t = Q(0)
    while t <= dur:
        times.append(t)
        t += grid
    marks = [t for t in trajectory_timeline(s) if is_finite(t)]
    rows = {n: [] for n in names}
    for t in times:
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


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="hybridsem", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, plot=False):
        p.add_argument("--system")
        p.add_argument("--abstract")
        p.add_argument("--relation")
        p.add_argument("--fixture")
        p.add_argument("--horizon")
        p.add_argument("--depth", type=int, default=64)
        p.add_argument("--delta")
        p.add_argument("--zeta")
        p.add_argument("--epsilon")
        p.add_argument("--x0")
        p.add_argument("--grid")
        p.add_argument("--json", action="store_true")
        p.add_argument("--out")
        p.add_argument("--csv")
        p.add_argument("--sync", action="store_true")
        return p

    handlers = {
        "validate": cmd_validate,
        "trajectories": cmd_trajectories,
        "sample": cmd_sample,
        "discretize": cmd_discretize,
        "check-sim": cmd_check_sim,
        "check-bisim": cmd_check_bisim,
        "check-preservation": cmd_check_preservation,
        "greatest-sim": cmd_greatest_sim,
        "check-refinement": cmd_check_refinement,
        "galois-laws": cmd_galois_laws,
        "plot": cmd_plot,
    }
    for name in handlers:
        common(sub.add_parser(name))
    p = common(sub.add_parser("check-theorem"))
    p.add_argument("number", type=int, choices=(1, 3, 5, 6, 7))
    p = common(sub.add_parser("gallery"))
    p.add_argument("name")
    p.add_argument("--check-theorem", type=int, dest="check_theorem")
    handlers["check-theorem"] = cmd_check_theorem
    handlers["gallery"] = cmd_gallery
    ap.set_defaults(handlers=handlers)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    handler = args.handlers[args.command]
    try:
        return handler(args)
    except (ParseError, UnknownFixture, ParamConstraintViolated) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return BADINPUT
    except HybridSemError as exc:
        print(f"check error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return FAIL


if __name__ == "__main__":
    sys.exit(main())
