"""Run one hybridsem CLI call with spans and counts around its layers.

    python3 tracer.py TRACE_OUT.json -- <hybridsem arguments>

The tracer changes no hybridsem source.  It imports every hybridsem
module, then replaces each traced function in every hybridsem module
namespace that binds the same object (`simulation` imports
`config_related` by name, `casestudy` imports `_forall_window_related`),
so no caller escapes the wrapper.  A traced name that no longer exists
is reported as absent and the call still runs.

Each span records calls, total seconds, self seconds (total minus the
time of child spans) and the spans that called it.  The time the
tracer's own counting takes is charged to no span.  The CLI output is
passed through to stdout; spans and counts go to TRACE_OUT.json.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import pkgutil
import sys
from collections import defaultdict
from time import perf_counter

COUNTED = {"relation.roots", "simulation.transfer", "discretize.exists_related"}


class Tracer:
    def __init__(self):
        self.spans = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                          "parents": defaultdict(int)})
        self.counts = defaultdict(int)
        self.absent = []
        self._names = []  # active span names, innermost last
        self._child = []  # child time accumulated by each active span

    def wrap(self, name, fn, on_result=None):
        spans, names, child = self.spans, self._names, self._child

        def traced(*args, **kwargs):
            parent = names[-1] if names else None
            outermost = name not in names
            names.append(name)
            child.append(0.0)
            returned = False
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                returned = True
            finally:
                dt = perf_counter() - t0
                names.pop()
                inner = child.pop()
                rec = spans[name]
                rec["calls"] += 1
                rec["self_s"] += dt - inner
                if outermost:
                    rec["total_s"] += dt
                rec["parents"][parent] += 1
                if returned and on_result is not None:
                    on_result(args, result)
                if child:
                    # the parent's self time excludes this span and its counting
                    child[-1] += perf_counter() - t0
            return result

        traced.__wrapped__ = fn
        return traced

    def count(self, name, fn, on_result=None):
        """Count calls without a span: their time stays in the caller's."""
        counts = self.counts

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[name + ".calls"] += 1
            if on_result is not None:
                on_result(args, result)
            return result

        counted.__wrapped__ = fn
        return counted

    def patch(self, modules, module_name, attr, name, spanned=True, on_result=None):
        """Wrap module_name.attr wherever a hybridsem module binds it."""
        fn = getattr(modules.get(module_name), attr, None)
        if fn is None:
            self.absent.append(f"{module_name}.{attr}")
            return
        if spanned:
            wrapper = self.wrap(name, fn, on_result)
        else:
            wrapper = self.count(name, fn, on_result)
        for mod in modules.values():
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapper)


def _import_all():
    import hybridsem

    modules = {"hybridsem": hybridsem}
    for info in pkgutil.iter_modules(hybridsem.__path__, "hybridsem."):
        modules[info.name] = importlib.import_module(info.name)
    return modules


def install(tracer: Tracer, modules) -> None:
    counts = tracer.counts
    distinct, related = set(), set()
    overlap = getattr(modules.get("hybridsem.time_core"), "interval_intersect", None)
    if overlap is None:
        tracer.absent.append("hybridsem.time_core.interval_intersect")

    def on_config_related(args, result):
        _, c, d = args[:3]
        counts["simulation.pairs.examined"] += 1
        if overlap is not None and overlap(c.interval, d.interval) is not None:
            counts["simulation.pairs.overlapping"] += 1
        distinct.add((c, d))
        counts["simulation.pairs.distinct"] = len(distinct)
        if result:
            related.add((c, d))
            counts["simulation.pairs.related"] = len(related)

    def add(key, size):
        def hook(args, result):
            counts[key] += size(result)
        return hook

    def on_generate(args, result):
        counts["hts.trajectories"] += len(result.trajectories)
        counts["hts.truncated"] += sum(1 for s in result.trajectories if s.truncated)

    def on_discretize(args, result):
        counts["discretize.hts.states"] += len(result.states)
        counts["discretize.hts.edges"] += len(result.edges)

    # (module, function, name, hook); a name in COUNTED gets a call count
    # and no span, so its time stays in its caller's self time
    targets = [
        ("hybridsem.hts", "semantics_generate", "hts.generate", on_generate),
        ("hybridsem.simulation", "config_graph", "simulation.config_graph",
         add("simulation.configs", lambda g: len(g.configs()))),
        ("hybridsem.simulation", "sim_check", "simulation.sim_check", None),
        ("hybridsem.simulation", "splice", "simulation.splice", None),
        ("hybridsem.simulation", "sim_transfer", "simulation.transfer", None),
        ("hybridsem.simulation", "compose_check", "simulation.compose", None),
        ("hybridsem.simulation", "well_nested_check", "simulation.well_nested", None),
        ("hybridsem.simulation", "greatest_simulation", "simulation.fixpoint",
         add("simulation.gsim_pairs", len)),
        ("hybridsem.simulation", "slice_closure", "simulation.slice_closure",
         add("simulation.slice_closure.size", len)),
        ("hybridsem.simulation", "canonical_key", "simulation.canonical_key", None),
        ("hybridsem.relation", "config_related", "relation.config_related", on_config_related),
        ("hybridsem.relation", "_forall_window_related", "relation.window", None),
        ("hybridsem.relation", "_constraint_roots", "relation.roots",
         add("relation.roots.found", len)),
        ("hybridsem.relation", "traj_related_timewise", "relation.timewise", None),
        ("hybridsem.relation", "state_related", "relation.state_related", None),
        ("hybridsem.discretize", "hts_discretize", "discretize.hts", on_discretize),
        ("hybridsem.discretize", "timeful_sample", "discretize.sample", None),
        ("hybridsem.discretize", "discrete_traces", "discretize.traces",
         add("discretize.traces.count", len)),
        ("hybridsem.discretize", "theorem6_check", "discretize.theorem6", None),
        ("hybridsem.discretize", "discretization_hypotheses", "discretize.hypotheses", None),
        ("hybridsem.discretize", "_exists_related", "discretize.exists_related", None),
        ("hybridsem.discretize", "relation_discretize", "discretize.relation",
         add("discretize.relation.pairs", len)),
        ("hybridsem.discretize", "milner_sim_check", "discretize.milner", None),
        ("hybridsem.casestudy", "run_refinement_chain", "casestudy.chain", None),
        ("hybridsem.cli", "emit", "cli.emit", None),
        ("hybridsem.cli", "main", "cli.main", None),
    ]
    for module_name, attr, name, hook in targets:
        tracer.patch(modules, module_name, attr, name, name not in COUNTED, hook)


def main(argv) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    modules = _import_all()
    install(tracer, modules)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = modules["hybridsem.cli"].main(cli_args)
    text = buf.getvalue()
    sys.stdout.write(text)
    tracer.counts["cli.output_bytes"] += len(text.encode())
    with open(out_path, "w") as f:
        json.dump({"spans": tracer.spans, "counts": tracer.counts,
                   "absent": tracer.absent}, f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
