"""Ablations of the design choices DESIGN.md calls out.

Not part of the paper's evaluation — these quantify the implementation
decisions of this reproduction on the 4-dimensional synthetic dataset:

1. *Volume-weighted anchor pairs* (default) vs. the paper's plain uniform
   pair selection for EA's restricted action space.
2. *Terminal-only reward* (paper) vs. an additional per-round penalty.
3. *Iterative outer sphere* (paper, Lemma 3) vs. Ritter's bounding
   sphere in EA's state encoding.
4. *Trained Q-network* vs. an untrained (randomly initialised) network
   over the same restricted action space — isolating how much of the
   win comes from RL rather than from the action-space engineering.
"""

from __future__ import annotations

import numpy as np
import pytest

import _common as C
from repro.core import EAConfig, train_ea
from repro.data.utility import sample_training_utilities
from repro.eval.runner import evaluate_algorithm
from repro.utils.rng import ensure_rng

D = 4


@pytest.fixture(scope="module")
def dataset():
    ds = C.anti_dataset(C.SYNTH_N, D)
    C.register_dataset("ablation", ds)
    return ds


def _train_and_eval(dataset, config: EAConfig, trained: bool = True):
    episodes = C.TRAIN_EPISODES if trained else 1
    train = sample_training_utilities(D, episodes, rng=C.BENCH_SEED + 51)
    agent = train_ea(
        dataset, train, config=config, rng=C.BENCH_SEED + 52,
        updates_per_episode=6 if trained else 0,
    )
    test = sample_training_utilities(D, C.TEST_USERS, rng=C.BENCH_SEED + 53)
    seed_rng = ensure_rng(C.BENCH_SEED + 54)
    return evaluate_algorithm(
        lambda: agent.new_session(rng=int(seed_rng.integers(2**62))),
        dataset,
        test,
        name="EA-variant",
    )


def test_ablation_action_weighting(dataset, benchmark):
    weighted = _train_and_eval(dataset, EAConfig(weighted_actions=True))
    uniform = _train_and_eval(dataset, EAConfig(weighted_actions=False))
    C.report(
        "Ablation action-weighting (EA, d=4, eps=0.1)",
        ["variant", "rounds", "regret"],
        [
            ["volume-weighted pairs", weighted.rounds_mean, weighted.regret_mean],
            ["uniform pairs (paper)", uniform.rounds_mean, uniform.regret_mean],
        ],
    )
    # Weighted selection should not be worse by much; typically it wins.
    assert weighted.rounds_mean <= uniform.rounds_mean + 2.0
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_ablation_reward_shaping(dataset, benchmark):
    terminal_only = _train_and_eval(dataset, EAConfig(step_penalty=0.0))
    penalised = _train_and_eval(dataset, EAConfig(step_penalty=1.0))
    C.report(
        "Ablation reward-shaping (EA, d=4, eps=0.1)",
        ["variant", "rounds", "regret"],
        [
            ["terminal-only (paper)", terminal_only.rounds_mean,
             terminal_only.regret_mean],
            ["per-round -1 penalty", penalised.rounds_mean,
             penalised.regret_mean],
        ],
    )
    # Both shapings optimise the same objective; they should be close.
    assert abs(terminal_only.rounds_mean - penalised.rounds_mean) <= 5.0
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_ablation_outer_sphere(dataset, benchmark):
    iterative = _train_and_eval(dataset, EAConfig(sphere_method="iterative"))
    ritter = _train_and_eval(dataset, EAConfig(sphere_method="ritter"))
    C.report(
        "Ablation outer-sphere (EA, d=4, eps=0.1)",
        ["variant", "rounds", "regret"],
        [
            ["iterative mover (paper)", iterative.rounds_mean,
             iterative.regret_mean],
            ["Ritter sphere", ritter.rounds_mean, ritter.regret_mean],
        ],
    )
    # Both are valid enclosing spheres; performance should be comparable.
    assert abs(iterative.rounds_mean - ritter.rounds_mean) <= 5.0
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_ablation_training_value(dataset, benchmark):
    """Trained vs. untrained Q-network on the same action space.

    At reduced training budgets the restricted action space (Lemmas 4-7)
    contributes most of the win and a 40-episode DQN can even trail an
    untrained network by a round or two; the assertion therefore only
    requires the trained policy to stay in the same ballpark — the
    paper-scale budget (10,000 episodes, Figure 6a) is where training
    separates clearly.
    """
    trained = _train_and_eval(dataset, EAConfig(), trained=True)
    untrained = _train_and_eval(dataset, EAConfig(), trained=False)
    C.report(
        "Ablation RL-training value (EA, d=4, eps=0.1)",
        ["variant", "rounds", "regret"],
        [
            ["trained Q-network", trained.rounds_mean, trained.regret_mean],
            ["untrained Q-network", untrained.rounds_mean,
             untrained.regret_mean],
        ],
    )
    assert trained.rounds_mean <= untrained.rounds_mean + 3.0
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
