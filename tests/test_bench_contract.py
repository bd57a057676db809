"""The benchmark's contract with the package: npgbench/harness.py runs each
workload's training calls through names it looks up in legwork.trainer
(TrainConfig(workers=1), TrajectoryBatch.trajectories and .n_samples,
npg_update's info["skipped"], batch_kl's float). If one of them goes, the
benchmark's set-up crashes and its run exits nonzero; this runs the harness
in-process, one call per workload and no set-up probes, so tier-1 sees it
first. The pinned digests are the benchmark's final_params_sha256 at
--seed 1; regenerate them only for an intended change of behaviour.
"""

import sys
import time
from pathlib import Path

import pytest

NPGBENCH = Path(__file__).resolve().parent.parent / "npgbench"

FINAL_PARAMS_SHA256 = {
    "low_goal_npg": "7b8dac54ec8022445b9ee7e2bdcc713f0ebf28a49308a5b5f51e118681bfc892",
    "hier_push_npg": "14401b1a4e7b4397e983d29fc3e063176af4f16d5c3fdcbc4abdbbdc70d10904",
}


@pytest.fixture(scope="module")
def harness():
    sys.path.insert(0, str(NPGBENCH))
    try:
        import harness
        yield harness
    finally:
        sys.path.remove(str(NPGBENCH))


@pytest.mark.parametrize("workload", sorted(FINAL_PARAMS_SHA256))
def test_benchmark_workload_runs_clean(harness, workload):
    result, meta = harness.run(workload, 1, 0.0, False, time.perf_counter())
    assert meta["failures"] == []
    assert result["correct"]
    assert meta["final_params_sha256"] == FINAL_PARAMS_SHA256[workload]
