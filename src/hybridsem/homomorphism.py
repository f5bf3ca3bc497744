"""State homomorphisms lifted to configurations, trajectories, and
explicit transition systems, with the two commutation checks:

* applying the state map before or after semantics generation gives the
  same trajectory set;
* applying the state map commutes with rank-annotated sampling.

State maps are restricted to affine variable maps plus a mode relabel,
so images of affine flows stay affine and all checks remain exact.
"""

from __future__ import annotations

from .affine import LinExpr
from .flow_config import AffineFlow, Configuration, PiecewiseConfiguration, State
from .hts import NO_TRAJECTORY, HybridTransitionSystem, semantics_generate
from .records import record
from .time_core import Q
from .trajectory import TimefulState, Trajectory, timeful_sample

__all__ = [
    "StateHom",
    "hom_state",
    "hom_config",
    "hom_trajectory",
    "hom_system",
    "theorem1_check",
    "theorem3_check",
]


@record(frozen=True)
class StateHom:
    """mode_map relabels modes (identity for missing keys); out_vars
    maps each output variable to an affine expression of input vars."""

    mode_map: tuple  # sorted (old, new)
    out_vars: tuple  # sorted (name, LinExpr over input variable names)

    @staticmethod
    def make(mode_map=None, out_vars=None) -> "StateHom":
        mode_map = mode_map or {}
        out_vars = out_vars or {}
        return StateHom(
            tuple(sorted(mode_map.items())), tuple(sorted(out_vars.items()))
        )

    def mode(self, m: str) -> str:
        return dict(self.mode_map).get(m, m)


def hom_state(h: StateHom, s: State) -> State:
    env = s.as_dict()
    return State.make(h.mode(s.mode), {k: e.eval(env) for k, e in h.out_vars})


def _hom_flow(h: StateHom, flow: AffineFlow) -> AffineFlow:
    rates = {k: r for k, (r, _) in flow.lines}
    offsets = {k: o for k, (_, o) in flow.lines}
    # an affine map of rate*t + offset: the offset goes through the whole
    # map, the rate through the map without its constant
    lines = (
        (name, (e.minus(LinExpr.constant(e.const)).eval(rates), e.eval(offsets)))
        for name, e in h.out_vars
    )
    return AffineFlow(h.mode(flow.mode), tuple(sorted(lines)))


def hom_config(h: StateHom, c):
    if isinstance(c, PiecewiseConfiguration):
        return PiecewiseConfiguration(tuple(hom_config(h, p) for p in c.pieces))
    return Configuration(_hom_flow(h, c.flow), c.interval)


def hom_trajectory(h: StateHom, s):
    return Trajectory(tuple(hom_config(h, c) for c in s.configs), s.truncated)


def hom_system(h: StateHom, sys: HybridTransitionSystem) -> HybridTransitionSystem:
    """Image of an explicit system: same interval/edge structure."""
    ex = sys.explicit
    if ex is None:
        raise ValueError("homomorphic image needs the explicit presentation")
    configs = tuple(hom_config(h, c) for c in ex.configs)
    return HybridTransitionSystem.from_explicit(
        tuple(n for n, _ in h.out_vars), sys.zeta, configs, ex.edges, ex.initial
    )


def theorem1_check(h: StateHom, sys: HybridTransitionSystem, horizon):
    """Image of the semantics equals the semantics of the image; no trajectory fails."""
    lhs = frozenset(
        hom_trajectory(h, s) for s in semantics_generate(sys, horizon).trajectories
    )
    rhs = semantics_generate(hom_system(h, sys), horizon).trajectories
    diff = {"only_mapped": lhs - rhs, "only_generated": rhs - lhs}
    return bool(lhs) and lhs == rhs, diff if lhs else {**diff, "note": NO_TRAJECTORY}


def theorem3_check(h: StateHom, trajectories, delta, horizon=None):
    """Sampling then mapping equals mapping then sampling; no trajectory fails."""
    delta = Q(delta)
    if not trajectories:
        return False, NO_TRAJECTORY
    for s in trajectories:
        a = tuple(
            TimefulState(hom_state(h, u.state), u.rank)
            for u in timeful_sample(s, delta, horizon)
        )
        b = timeful_sample(hom_trajectory(h, s), delta, horizon)
        if a != b:
            return False, (s, a, b)
    return True, None
