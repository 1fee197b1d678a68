"""The benchmark's reference evaluator agrees with dvpsched's brute-force
enumeration oracle on tiny scenarios, and its baseline rules agree with the
program's on every state of a small grid."""
import itertools

import numpy as np
import pytest

from dvpsched import ScenarioConfig, Schedule, exact_dvp_enum
from dvpsched.mdp import baseline_actions
from reference import Reference, baseline_action, schedule_action

TINY = [
    # (N, pe, w, y, x1, x2)
    (2, 0.5, 2, 1, 0, 0),
    (3, 0.2, 3, 1, 1, 1),
    (4, 0.4, 3, 2, 1, 2),
    (3, 0.05, 4, 1, 1, 0),
    (2, 0.02, 3, 1, 0, 1),
]


@pytest.mark.parametrize("scenario", TINY)
def test_matches_enumeration_on_every_schedule(scenario):
    N, pe, w, y, x1, x2 = scenario
    config = ScenarioConfig(N=N, p_e=pe, w=w, y=y, x1=x1, x2=x2)
    ref = Reference(*scenario)
    for n1 in itertools.product(range(N + 1), repeat=w):
        oracle = exact_dvp_enum(config, Schedule(n1=n1, N=N))
        dvp, departures = ref.evaluate(schedule_action(n1))
        assert dvp == pytest.approx(oracle.dvp, rel=1e-12, abs=1e-300)
        assert departures == pytest.approx(oracle.mean_departures, rel=1e-12)


@pytest.mark.parametrize("kind", ["mw", "wfq", "bp", "fifty"])
@pytest.mark.parametrize("N", [1, 4, 5])
def test_baseline_rules_match_program(kind, N):
    q1, q2 = np.meshgrid(np.arange(8), np.arange(8), indexing="ij")
    program = baseline_actions(kind, q1.ravel(), q2.ravel(), N)
    rule = baseline_action(kind, N)
    ours = [rule(0, int(a), int(b)) for a, b in zip(q1.ravel(), q2.ravel())]
    assert ours == program.tolist()
