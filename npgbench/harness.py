"""Runs one workload: set-up, timed training calls, correctness checks,
metrics and run metadata.

A run repeats one training call of fixed size (``Workload.iterations`` NPG
iterations from a fresh seeded policy) until the requested seconds have
passed. Every call does identical work, so its final parameters must be
bit-identical to the first call's, and its throughput is one sample of
``env_steps_per_s``; the run reports their median. With tracing on,
untraced and traced calls alternate: the traced ones give the per-layer
figures, and comparing the two kinds gives the tracing overhead.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import layers
from tracer import ROOT, Patches, Tracer
from workloads import WORKLOADS

# Realized KL of a taken step must lie in [KL_BAND[0], KL_BAND[1]] * kl_step.
# The step is sized so the quadratic model of the KL equals kl_step; the
# upper factor is the limit past which TRPO implementations treat the step
# as a violation. Both ends leave room for the higher-order terms: measured
# ratios on these workloads span 0.80 to 1.32.
KL_BAND = (0.5, 1.5)
SETUP_PROBES = 6  # extra processes that each time set-up once
# Largest share of a traced call's wall time that no wrapped function may
# cover (the root span's self time); measured below 0.003.
ROOT_SELF_MAX = 0.05


class Recorder:
    """Observes what the checks and the throughput need, at call boundaries
    the trainer looks up each iteration, plus a count of world steps."""

    def __init__(self, steps_per_sample: int):
        self.steps_per_sample = steps_per_sample
        self.reset()

    def reset(self):
        self.episodes = 0
        self.samples = 0
        self.world_steps = 0
        self.kls = []
        self.skipped = 0

    @property
    def env_steps(self) -> int:
        return self.samples * self.steps_per_sample

    def install(self, patches: Patches) -> None:
        if not patches.wrap("legwork.trainer", "collect_batch", self._collect):
            raise RuntimeError("legwork.trainer.collect_batch is gone; "
                               "environment steps cannot be counted")
        patches.wrap("legwork.trainer", "npg_update", self._update)
        patches.wrap("legwork.trainer", "batch_kl", self._kl)
        # Only a cross-check of the step count: skipped if the binding goes.
        patches.wrap("legwork.tasks", "world_step", self._world_step)

    def _collect(self, fn):
        def collect_batch(*args, **kwargs):
            batch = fn(*args, **kwargs)
            self.episodes += len(batch.trajectories)
            self.samples += batch.n_samples
            return batch
        return collect_batch

    def _update(self, fn):
        def npg_update(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.skipped += bool(result[1]["skipped"])
            return result
        return npg_update

    def _kl(self, fn):
        def batch_kl(*args, **kwargs):
            kl = fn(*args, **kwargs)
            self.kls.append(float(kl))
            return kl
        return batch_kl

    def _world_step(self, fn):
        def world_step(*args, **kwargs):
            self.world_steps += 1
            return fn(*args, **kwargs)
        return world_step


def setup(workload_name: str, seed: int):
    """Build the workload, install the recorder and run one untimed warm-up
    iteration. Returns (train, recorder, patches)."""
    wl = WORKLOADS[workload_name]
    recorder = Recorder(wl.steps_per_sample())
    patches = Patches()
    recorder.install(patches)
    train = wl.build(seed)
    train(1)
    return train, recorder, patches


def _call(train, iterations: int, recorder: Recorder, tracer=None) -> dict:
    """One timed training call and what the checks need from it."""
    recorder.reset()
    patches = Patches()
    lo = 0
    if tracer is not None:
        contacts = layers.install(tracer, patches)
        train = tracer.wrapper(ROOT)(train)
        lo = tracer.span_range()
    error = policy = None
    cpu = time.process_time()
    start = time.perf_counter()
    try:
        policy = train(iterations)
    except Exception:  # noqa: BLE001 - a failed call is counted, not fatal
        error = traceback.format_exc()
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu
    patches.undo()
    rec = {"wall": wall, "cpu": cpu, "episodes": recorder.episodes,
           "samples": recorder.samples, "env_steps": recorder.env_steps,
           "world_steps": recorder.world_steps, "kls": list(recorder.kls),
           "skipped": recorder.skipped, "error": error, "traced": tracer is not None}
    if policy is not None:
        rec["params"] = policy.flat_params()
    if tracer is not None:
        hi = tracer.span_range()
        rec["absent"] = patches.absent
        rec["layers"] = tracer.self_times(lo, hi)
        rec["fvp_in_cg"] = tracer.count_children(
            lo, hi, "trainer.conjugate_gradient", "trainer.fisher_vector_product")
        rec["contacts"] = contacts.count
        rec["contacts_broken"] = contacts.broken
    return rec


def check_call(rec: dict, ref_params, iterations: int, fixed_steps,
               kl_step: float) -> list:
    """Failures of one call as (iterations it fails, message); empty when
    the call passes every check."""
    if rec["error"] is not None:
        return [(iterations, "training call raised:\n" + rec["error"])]
    out = []
    if rec["skipped"]:
        out.append((rec["skipped"], f"{rec['skipped']} NPG update(s) skipped"))
    lo, hi = KL_BAND[0] * kl_step, KL_BAND[1] * kl_step
    bad = [kl for kl in rec["kls"] if not lo <= kl <= hi]
    if bad:
        out.append((len(bad), f"realized KL {bad} outside [{lo}, {hi}]"))
    params = rec["params"]
    if not np.all(np.isfinite(params)):
        out.append((iterations, "final parameters not finite"))
    elif ref_params is not None and params.tobytes() != ref_params.tobytes():
        out.append((iterations, "final parameters differ from the first call's "
                    "with the same seed"))
    if fixed_steps is not None and rec["env_steps"] != fixed_steps:
        out.append((iterations, f"{rec['env_steps']} environment steps, "
                    f"expected batch x horizon x iterations = {fixed_steps}"))
    if rec["world_steps"] and rec["world_steps"] != rec["env_steps"]:
        out.append((iterations, f"{rec['world_steps']} world steps but "
                    f"{rec['env_steps']} environment steps from the batches"))
    return out


def _quartiles(values):
    if len(values) < 2:
        v = float(values[0])
        return v, v
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _summary(values) -> dict:
    q1, q3 = _quartiles(values)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def probe_setup(probe_cmd) -> float:
    """Set-up seconds measured by one fresh process, waited for."""
    proc = subprocess.run(probe_cmd, capture_output=True, text=True,
                          timeout=120, check=False)
    if proc.returncode != 0:
        raise RuntimeError("set-up probe failed:\n" + proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def peak_rss_mb() -> float:
    """Peak resident memory of this process or any waited-for child."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def run(workload_name: str, seed: int, seconds: float, trace: bool, t0: float,
        probe_cmd=None, iterations=None, out_dir=None):
    """Run one workload; returns (result, meta) as printed by run.py.

    t0 is the perf_counter reading taken before legwork was imported.
    """
    wl = WORKLOADS[workload_name]
    iterations = iterations or wl.iterations
    train, recorder, patches = setup(workload_name, seed)
    setup_s = time.perf_counter() - t0
    from legwork.trainer import TrainConfig
    defaults = TrainConfig()  # every workload trains with these

    tracer = Tracer() if trace else None
    min_calls = 3 if trace else 2  # two untraced calls for determinism
    fixed = (None if wl.fixed_horizon is None
             else defaults.batch_size * wl.fixed_horizon * iterations)
    calls, failures = [], []
    attempted = failed = 0
    ref = None
    # Set-up probes run one at a time, spread over the run, so that a burst
    # of other load on the machine does not catch all of them. Their time
    # does not count towards the measured seconds.
    n_probes = 0 if trace or probe_cmd is None else SETUP_PROBES
    due = [seconds * (i + 1) / (n_probes + 1) for i in range(n_probes)]
    probes, probe_s = [], 0.0
    begin = time.perf_counter()

    def elapsed():
        return time.perf_counter() - begin - probe_s

    while len(calls) < min_calls or elapsed() < seconds:
        if due and elapsed() >= due[0]:
            due.pop(0)
            t = time.perf_counter()
            probes.append(probe_setup(probe_cmd))
            probe_s += time.perf_counter() - t
            continue
        traced = trace and len(calls) % 2 == 1
        rec = _call(train, iterations, recorder, tracer if traced else None)
        problems = check_call(rec, ref, iterations, fixed, defaults.kl_step)
        # Only the reference is kept, so that memory held by the benchmark
        # does not grow with the number of calls.
        params = rec.pop("params", None)
        if ref is None and params is not None and not problems:
            ref = params
        attempted += iterations
        failed += min(iterations, sum(n for n, _ in problems))
        failures += [text for _, text in problems]
        calls.append(rec)
    measured = elapsed()
    patches.undo()
    probes += [probe_setup(probe_cmd) for _ in due]

    def eps(kind_traced, clock="wall"):
        return [c["env_steps"] / c[clock] for c in calls
                if c["traced"] == kind_traced and c["error"] is None]

    untraced = eps(False)
    meta = run_metadata(workload_name, seed, seconds, measured, trace)
    meta.update({
        "iterations_per_call": iterations,
        "kl_band": [KL_BAND[0] * defaults.kl_step, KL_BAND[1] * defaults.kl_step],
        "calls": len(calls),
        "call_wall_s": [c["wall"] for c in calls],
        "call_cpu_s": [c["cpu"] for c in calls],
        "call_env_steps": [c["env_steps"] for c in calls],
        "call_traced": [c["traced"] for c in calls],
        "env_steps_per_s": _summary(untraced) if untraced else None,
        "env_steps_per_cpu_s": (_summary(eps(False, "cpu")) if untraced
                                else None),
        "kl_range": ([min(k for c in calls for k in c["kls"]),
                      max(k for c in calls for k in c["kls"])]
                     if any(c["kls"] for c in calls) else None),
        "final_params_sha256": (hashlib.sha256(ref.tobytes()).hexdigest()
                                if ref is not None else None),
        "absent": sorted(patches.absent),
        "failures": failures,
    })

    if not trace:
        samples = [setup_s, *probes]
        meta["setup_s"] = {"samples": samples, **_summary(samples)}
        metrics = {
            "env_steps_per_s": (statistics.median(untraced) if untraced else 0.0,
                                "1/s"),
            "setup_s": (statistics.median(samples), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
    else:
        metrics, trace_failures = _trace_metrics(calls, eps(True), untraced)
        failures += trace_failures
        meta["absent"] = sorted(patches.absent.union(
            *(c["absent"] for c in calls if c["traced"])))
        meta["contacts_unmeasured"] = any(c["contacts_broken"]
                                          for c in calls if c["traced"])
        if out_dir is not None:
            Path(out_dir).mkdir(parents=True, exist_ok=True)
            path = Path(out_dir) / f"spans-{workload_name}-seed{seed}.npz"
            tracer.write(path)
            meta["spans_file"] = str(path)

    correct = failed == 0 and not failures
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v if isinstance(v, int) else float(v), "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    return result, meta


def _trace_metrics(calls, traced_eps, untraced_eps):
    """Per-layer metrics: calls from the traced calls (which must agree),
    self seconds and wall as medians over them."""
    traced = [c for c in calls if c["traced"] and c["error"] is None]
    failures = []
    per_call = [layers.per_layer_metrics(c) for c in traced]
    metrics = {}
    for key in per_call[0] if per_call else ():
        values = [m[key] for m in per_call]
        if key.endswith(".self_s"):
            metrics[key] = (statistics.median(values), "s")
            continue
        if len(set(values)) != 1:
            failures.append(f"{key} differs between identical traced calls: "
                            f"{values}")
        metrics[key] = (values[0], layers.DERIVED.get(key, "count"))
    walls = [c["wall"] for c in traced]
    for c in traced:
        roots, root_self = c["layers"].get(ROOT, (0, 0.0))
        if roots != 1:
            failures.append("traced call has no single root span")
        elif root_self > ROOT_SELF_MAX * c["wall"]:
            failures.append(f"wrapped functions cover only "
                            f"{1 - root_self / c['wall']:.3f} of the traced "
                            f"wall time {c['wall']} s")
    metrics["trace.wall_s"] = (statistics.median(walls) if walls else 0.0, "s")
    metrics["trace.root_self_s"] = (statistics.median(
        c["layers"][ROOT][1] for c in traced) if traced else 0.0, "s")
    overhead = 0.0
    if traced_eps and untraced_eps:
        overhead = 1.0 - (statistics.median(traced_eps)
                          / statistics.median(untraced_eps))
    metrics["trace.overhead_frac"] = (overhead, "fraction")
    return metrics, failures


def _git_sha(root: Path):
    """HEAD commit read from .git, or None in a checkout without one."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_sha256(src: Path) -> str:
    """Digest of every source file, which names the code without git."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _blas() -> str:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):  # numpy older than 1.25
        return "unknown"


def run_metadata(workload_name, seed, seconds, measured, trace) -> dict:
    root = Path(__file__).resolve().parent.parent
    return {
        "workload": workload_name,
        "seed": seed,
        "seconds_requested": seconds,
        "seconds_measured": measured,
        "trace": bool(trace),
        "git_sha": _git_sha(root),
        "src_sha256": _src_sha256(root / "src"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {k: v for k, v in os.environ.items()
                         if k.endswith("_NUM_THREADS")},
        "platform": platform.platform(),
        "argv": sys.argv,
    }
