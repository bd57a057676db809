"""The benchmark's contract with the package: npgbench runs each workload's
training calls through names it looks up in legwork:
- the three entry points train_low_level(config, RandomizationConfig()),
  train_high_level(config, "push", low_policy) and
  train_flat(config, "coordinate", randomized=True);
- RandomizationConfig() with no arguments (legwork.randomization);
- TrainConfig(workers=1), the one value workers accepts, and
  TrajectoryBatch.trajectories and .n_samples,
  npg_update's info["skipped"] and batch_kl's float (legwork.trainer).
If one of them goes, the benchmark's set-up crashes and its run exits
nonzero; this runs the harness in-process, one call per workload and no
set-up probes, so tier-1 sees it first. A traced run times the functions
that npgbench/layers.py binds; one that goes only reads as absent there,
so the set of absent bindings is pinned too. The pinned digests are the
benchmark's final_params_sha256 at --seed 1 under one BLAS thread
(conftest.py); regenerate them only for an intended change of behaviour.
flat_coord_npg is not in BENCHMARK.json, but its randomized flat
Coordinate path (dynamics, object dimensions, observation noise) is pinned
here too.
"""

import sys
import time
from pathlib import Path

import pytest

NPGBENCH = Path(__file__).resolve().parent.parent / "npgbench"

FINAL_PARAMS_SHA256 = {
    "low_goal_npg": "7b8dac54ec8022445b9ee7e2bdcc713f0ebf28a49308a5b5f51e118681bfc892",
    "hier_push_npg": "14401b1a4e7b4397e983d29fc3e063176af4f16d5c3fdcbc4abdbbdc70d10904",
    "flat_coord_npg": "889824ac5df9ebf5a2eac5de118733f015e81ac45ba18cf71dfb5b598d437013",
}


# The bindings of npgbench/layers.py that name functions this package no
# longer has. Rebinding them in the benchmark shrinks this set; a function
# removed from the package must not grow it.
ABSENT_BINDINGS = {
    "legwork.tasks.world_step", "legwork.tasks.substream",
    "legwork.tasks.apply_sticky", "legwork.tasks.sample_wrench",
    "legwork.tasks.low_level_reward", "legwork.world.step_agent",
    "legwork.world.resolve_push", "legwork.world.sample_terrain",
    "legwork.policy.perturb_high_level_action", "legwork.policy:MlpPolicy.sample",
    "legwork.tasks:TaskEnv.reset", "legwork.tasks:LowLevelGoalEnv.__init__",
    "legwork.tasks:LowLevelGoalEnv.reset", "legwork.tasks:LowLevelGoalEnv.step",
}


@pytest.fixture(scope="module")
def harness():
    sys.path.insert(0, str(NPGBENCH))
    try:
        import harness
        yield harness
    finally:
        sys.path.remove(str(NPGBENCH))


def test_benchmark_binds_every_layer_but_the_known_absent_ones(harness):
    # resolved as a traced run resolves them, each wrapped in itself
    patches = harness.Patches()
    try:
        for _, owner, attr in harness.layers.BINDINGS:
            patches.wrap(owner, attr, lambda fn: fn)
    finally:
        patches.undo()
    assert patches.absent == ABSENT_BINDINGS


@pytest.mark.parametrize("workload", sorted(FINAL_PARAMS_SHA256))
def test_benchmark_workload_runs_clean(harness, workload):
    result, meta = harness.run(workload, 1, 0.0, False, time.perf_counter())
    assert meta["failures"] == []
    assert result["correct"]
    assert meta["final_params_sha256"] == FINAL_PARAMS_SHA256[workload]
