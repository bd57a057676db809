"""Fast tests of the benchmark itself: python3 -m pytest npgbench -q"""

import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import harness  # noqa: E402
import layers  # noqa: E402
from tracer import ROOT as ROOT_SPAN, Patches, Tracer, self_time  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- span arithmetic ---------------------------------------------------------

def test_self_time_of_synthetic_tree():
    # root(0..10) -> a(1..4) -> c(2..3); root -> b(5..9) -> d(6..7), e(7..8.5)
    start = np.array([0.0, 1.0, 2.0, 5.0, 6.0, 7.0])
    end = np.array([10.0, 4.0, 3.0, 9.0, 7.0, 8.5])
    parent = np.array([-1, 0, 1, 0, 3, 3])
    own = self_time(parent, end - start)
    assert own == pytest.approx([3.0, 2.0, 1.0, 1.5, 1.0, 1.5])
    assert own.sum() == pytest.approx(10.0)


def test_tracer_nests_spans_and_self_times_sum_to_root():
    tracer = Tracer()

    def leaf(n):
        return sum(range(n))

    traced_leaf = tracer.wrapper("leaf")(leaf)

    def mid():
        return traced_leaf(1000) + traced_leaf(2000)

    root = tracer.wrapper(ROOT_SPAN)(tracer.wrapper("mid")(mid))
    assert root() == leaf(1000) + leaf(2000)
    times = tracer.self_times()
    assert {k: c for k, (c, _) in times.items()} == {"leaf": 2, "mid": 1,
                                                     ROOT_SPAN: 1}
    names, par, dur = tracer.arrays()
    assert par.tolist() == [-1, 0, 1, 1]
    assert math.isclose(sum(s for _, s in times.values()), dur[0], rel_tol=1e-9)
    assert tracer.count_children(0, 4, "mid", "leaf") == 2
    assert tracer.count_children(0, 4, ROOT_SPAN, "leaf") == 0


def test_contact_counter_that_meets_a_changed_shape_stops_not_fatal():
    contacts = layers.Contacts()
    block = types.SimpleNamespace(x=0.0, y=0.0, yaw=0.0)
    moved = types.SimpleNamespace(x=0.1, y=0.0, yaw=0.0)
    push = contacts.wrap(lambda agent, radius, blk, dt: moved if agent else blk)
    assert push(True, 0.1, block, 0.05) is moved
    assert push(False, 0.1, block, 0.05) is block
    assert contacts.count == 1 and not contacts.broken
    changed = contacts.wrap(lambda agent, radius: "no block")
    assert changed(True, 0.1) == "no block" and changed(True, 0.1) == "no block"
    assert contacts.broken and contacts.count == 1


# -- bindings ----------------------------------------------------------------

class _Base:
    def step(self):
        return "base"


class _Child(_Base):
    pass


def test_patches_restore_and_record_absent_bindings():
    patches = Patches()
    here = __name__ + ":_Child"
    assert patches.wrap(here, "step", lambda fn: lambda self: "wrapped")
    assert not patches.wrap(here, "gone", lambda fn: fn)
    assert not patches.wrap(__name__ + ":NoSuchClass", "step", lambda fn: fn)
    assert not patches.wrap("no_such_module_xyz", "f", lambda fn: fn)
    assert _Child().step() == "wrapped"
    patches.undo()
    assert _Child().step() == "base" and "step" not in vars(_Child)
    assert patches.absent == {here + ".gone", __name__ + ":NoSuchClass.step",
                              "no_such_module_xyz.f"}


def test_every_binding_exists_at_this_commit():
    patches = Patches()
    layers.install(Tracer(), patches)
    patches.undo()
    assert patches.absent == set()


# -- correctness checks ------------------------------------------------------

def _rec(**kw):
    rec = {"error": None, "skipped": 0, "kls": [0.05], "params": np.ones(3),
           "env_steps": 8000, "world_steps": 8000}
    rec.update(kw)
    return rec


@pytest.mark.parametrize("change, fails", [
    ({}, 0),
    ({"error": "Traceback"}, 2),
    ({"skipped": 1}, 1),
    ({"kls": [0.05, 0.09]}, 1),
    ({"kls": [0.01]}, 1),
    ({"params": np.array([1.0, np.nan, 1.0])}, 2),
    ({"params": np.array([1.0, 1.0, 1.0 + 1e-16 * 3])}, 2),
    ({"env_steps": 7999, "world_steps": 7999}, 2),
    ({"world_steps": 7990}, 2),
])
def test_check_call_rejects(change, fails):
    problems = harness.check_call(_rec(**change), np.ones(3), 2, 8000, 0.05)
    assert sum(n for n, _ in problems) == fails


def _traced_rec(root_self):
    return {"traced": True, "error": None, "wall": 1.0, "contacts": 0,
            "episodes": 20, "samples": 800, "skipped": 0, "fvp_in_cg": 10,
            "layers": {ROOT_SPAN: (1, root_self), "world.world_step": (
                800, 1.0 - root_self)}}


@pytest.mark.parametrize("root_self, fails", [(0.01, False), (0.2, True)])
def test_trace_fails_when_wrapped_functions_miss_the_wall_time(root_self,
                                                                fails):
    _, failures = harness._trace_metrics([_traced_rec(root_self)] * 2,
                                         [1.0], [1.0])
    assert bool(failures) == fails


# -- runs --------------------------------------------------------------------

def test_spec_names_match_the_workloads_and_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == ["low_goal_npg",
                                                     "hier_push_npg"]
    assert set(WORKLOADS) == {"low_goal_npg", "hier_push_npg", "flat_coord_npg"}
    names = {m["name"] for m in SPEC["end_to_end"]}
    assert names == {"env_steps_per_s", "setup_s", "peak_rss_mb"}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_run_passes_checks_and_prints_every_metric(name):
    result, meta = harness.run(name, seed=3, seconds=0, trace=False,
                               t0=0.0, iterations=1)
    assert meta["failures"] == []
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 2
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_runs_with_one_seed_agree_bit_for_bit_traced_or_not(tmp_path):
    digests = [harness.run("low_goal_npg", seed=4, seconds=0, trace=trace,
                           t0=0.0, iterations=1,
                           out_dir=tmp_path)[1]["final_params_sha256"]
               for trace in (False, False, True)]
    assert digests[0] is not None and len(set(digests)) == 1


@pytest.mark.parametrize("name", ["low_goal_npg", "hier_push_npg"])
def test_tiny_traced_run_reports_every_layer(name, tmp_path):
    result, meta = harness.run(name, seed=3, seconds=0, trace=True, t0=0.0,
                               iterations=1, out_dir=tmp_path)
    assert meta["failures"] == [] and meta["absent"] == []
    assert result["correct"]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["trainer.collect_batch.calls"] == 1
    assert m["trainer.collect_batch.episodes"] == 20
    assert m["trainer.conjugate_gradient.fvp_calls"] == 10
    assert m["world.world_step.calls"] > 0 and m["policy.MlpPolicy.sample.calls"] > 0
    if name == "low_goal_npg":
        assert m["world.resolve_push.calls"] == 0
        assert m["randomization.apply_sticky.calls"] > 0
    else:
        assert m["world.resolve_push.calls"] == 4000
        assert 0 < m["world.resolve_push.contact_frac"] < 1
    spans = np.load(meta["spans_file"])
    assert ROOT_SPAN in spans["names"].tolist()


def test_bare_directory_exits_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "npgbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "npgbench/run.py", "--workload", "low_goal_npg",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
