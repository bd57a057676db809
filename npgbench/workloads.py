"""The three training workloads. README.md gives the reason for each.

Every workload calls one public training entry point with the
``TrainConfig`` defaults (batch 20 episodes, kl_step 0.05, 10 CG
iterations) apart from the seed, which comes from the command line, the
iteration count and ``workers=1``, which keeps all load in one process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Workload:
    name: str
    iterations: int  # NPG iterations per timed training call
    # Environment steps per episode when episodes never end early, so the
    # step count of a call is fixed; None when a fall can end an episode.
    fixed_horizon: int | None
    # Environment steps behind one trainer sample: 1, or the steps the low
    # level runs per high-level decision.
    steps_per_sample: Callable
    # build(seed) -> train(iterations) -> final policy. Work that a training
    # call repeats goes in train; build holds what one process does once.
    build: Callable


def _low_goal(seed: int):
    from legwork import trainer
    from legwork.randomization import RandomizationConfig

    def train(iterations):
        config = trainer.TrainConfig(iterations=iterations, seed=seed, workers=1)
        return trainer.train_low_level(config, RandomizationConfig())
    return train


def _hier_push(seed: int):
    from legwork import trainer
    from legwork.policy import MlpPolicy

    # An untrained, seeded low level: training one first would cost minutes
    # of set-up, and its weights do not change the work per step.
    low = MlpPolicy(32, 12, seed=seed)

    def train(iterations):
        config = trainer.TrainConfig(iterations=iterations, seed=seed, workers=1)
        return trainer.train_high_level(config, "push", low)
    return train


def _flat_coord(seed: int):
    from legwork import trainer

    def train(iterations):
        config = trainer.TrainConfig(iterations=iterations, seed=seed, workers=1)
        return trainer.train_flat(config, "coordinate", randomized=True)
    return train


def _goal_horizon() -> int:
    from legwork.policy import GOAL_HORIZON
    return GOAL_HORIZON


WORKLOADS = {w.name: w for w in (
    Workload("low_goal_npg", iterations=2, fixed_horizon=None,
             steps_per_sample=lambda: 1, build=_low_goal),
    Workload("hier_push_npg", iterations=1, fixed_horizon=200,
             steps_per_sample=_goal_horizon, build=_hier_push),
    Workload("flat_coord_npg", iterations=1, fixed_horizon=200,
             steps_per_sample=lambda: 1, build=_flat_coord),
)}
