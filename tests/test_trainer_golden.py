"""Golden training runs: fixed seeds pin, bit for bit, the final parameters
of short low-level, hierarchical Push and randomized flat Coordinate
training runs. Every phase of an NPG iteration (collection, baseline,
GAE, gradient, CG and update) feeds the final parameters, so a changed bit
anywhere on the training path shows here.

The low-level run's third batch holds an episode that falls at step 19,
so the padded rows of a batch are covered.

The pinned values were produced by this file's own runner; regenerate them
only for an intended change of behaviour:

    PYTHONPATH=src python tests/test_trainer_golden.py
"""

import hashlib

import pytest

from legwork.policy import MlpPolicy
from legwork.randomization import RandomizationConfig
from legwork.trainer import TrainConfig, train_flat, train_high_level, train_low_level

RUNS = {
    "low": lambda: train_low_level(TrainConfig(iterations=3, batch_size=8, seed=7),
                                   RandomizationConfig()),
    "push": lambda: train_high_level(TrainConfig(iterations=2, batch_size=3, seed=1),
                                     "push", MlpPolicy(32, 12, seed=1)),
    "coordinate": lambda: train_flat(TrainConfig(iterations=1, batch_size=2, seed=1),
                                     "coordinate", randomized=True),
}


def params_sha256(name) -> str:
    """sha256 of the run's final parameters as little-endian float64."""
    theta = RUNS[name]().flat_params()
    return hashlib.sha256(theta.astype("<f8").tobytes()).hexdigest()


GOLDEN = {
    "coordinate": "cd6d75893dce13bdbc030db6ce29029457d35fda19156688b1d768a1add2b86c",
    "low": "16f28cf1ccd67a4dff67dc0aa8b7c913f33d430d3867cab86069efb0583b58e0",
    "push": "aaa551274581ce566023cca35b13bc7f53c0ea3d034f271b639133ac74829b38",
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_golden_training_run(name):
    assert params_sha256(name) == GOLDEN[name]


if __name__ == "__main__":
    for run in sorted(RUNS):
        print(f'    "{run}": "{params_sha256(run)}",')
