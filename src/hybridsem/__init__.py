"""Exact-rational semantics of hybrid systems: piecewise-affine
trajectories, timed state relations, asynchronous simulations, timeful
discretization, and the water-tank case study."""

from .affine import AffineConstraint, LinExpr, parse_constraint, parse_expr
from .casestudy import (
    TankParams,
    build_tank_automaton,
    build_tank_impl,
    build_tank_spec,
    gallery_fixture,
    run_refinement_chain,
    spec_predicate_check,
    tank_relations,
)
from .discretize import (
    DiscreteTransitionSystem,
    discretization_hypotheses,
    hts_discretize,
    milner_sim_check,
    relation_discretize,
    theorem6_check,
    theorem7_check,
)
from .flow_config import (
    AffineFlow,
    Configuration,
    PiecewiseConfiguration,
    State,
    config_concat,
    config_slice,
    make_config,
)
from .homomorphism import StateHom, hom_trajectory, theorem1_check, theorem3_check
from .hts import (
    Edge,
    ExitCondition,
    HybridTransitionSystem,
    ModeSchema,
    hts_from_json,
    hts_validate,
    semantics_generate,
)
from .relation import (
    Clause,
    TimedStateRelation,
    config_related,
    relation_from_json,
    sem_related,
    state_related,
    traj_related_exists_counterpart,
    traj_related_rankwise,
    traj_related_timewise,
)
from .simulation import (
    ConfigGraph,
    bisim_check,
    compose_check,
    config_graph,
    greatest_simulation,
    preservation_check,
    sim_check,
    system_graph,
    theorem4_match,
    well_nested_check,
)
from .time_core import INF, NEG_INF, Q, TimeInterval
from .trajectory import (
    DiscreteTrace,
    TimefulState,
    Trajectory,
    timeful_sample,
    timeless_sample,
    trajectory_sample,
    trajectory_validate,
)

__version__ = "0.1.0"
