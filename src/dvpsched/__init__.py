"""Deadline-violation analysis and slot scheduling for a two-hop lossy
wireless path: exact evaluators, analytic bounds, semi-static and dynamic
(MDP) schedulers, comparison baselines, and a Monte Carlo estimator.

The scalar oracles the tests check these against live in dvpsched.oracles;
of them only exact_dvp_enum is exported here."""

from .dvp import EvalResult, dvpub, exact_dvp_chain, wtb_min_s
from .mdp import PolicyTable, TransitionKernel, value_iteration
from .model import (
    CapExceededError,
    ScenarioConfig,
    Schedule,
    binomial_pmf,
    binomial_pmf_table,
)
from .oracles import exact_dvp_enum
from .semistatic import (
    RelaxedSchedule,
    SemiStaticResult,
    e_dvpub,
    e_wtb,
    fifty_fifty,
    neighbor_search,
    opt,
    round_nearest,
    solve_relaxed,
    wtb_w,
)
from .sim import SimResult, simulate_policies, wilson_interval

__all__ = [
    "CapExceededError",
    "EvalResult",
    "PolicyTable",
    "RelaxedSchedule",
    "ScenarioConfig",
    "Schedule",
    "SemiStaticResult",
    "SimResult",
    "TransitionKernel",
    "binomial_pmf",
    "binomial_pmf_table",
    "dvpub",
    "e_dvpub",
    "e_wtb",
    "exact_dvp_chain",
    "exact_dvp_enum",
    "fifty_fifty",
    "neighbor_search",
    "opt",
    "round_nearest",
    "simulate_policies",
    "solve_relaxed",
    "value_iteration",
    "wilson_interval",
    "wtb_min_s",
    "wtb_w",
]
