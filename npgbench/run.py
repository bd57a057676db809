"""Benchmark entry point: NPG training throughput on three workloads.

    python3 npgbench/run.py --workload low_goal_npg --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout. The last line of standard output is
the result, ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``. The line before it holds the run metadata. The exit code is
0 only when every correctness check passed.
"""

import time

T0 = time.perf_counter()  # set-up time counts from here, before any import

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import WORKLOADS  # noqa: E402 - imports nothing heavy

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# One process, one BLAS thread: the load stays on one core of the machine.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=list(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="time set-up once, print it and exit (used by the "
                        "benchmark itself to take several set-up samples)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "legwork" / "__init__.py").is_file():
        print(f"no legwork sources under {ROOT / 'src'}; run the benchmark "
              "from a full checkout", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import harness  # numpy is imported only now, after the pinning

    if args.setup_probe:
        harness.setup(args.workload, args.seed)
        print(json.dumps({"setup_s": time.perf_counter() - T0}))
        return 0
    probe_cmd = [sys.executable, str(Path(__file__).resolve()),
                 "--workload", args.workload, "--seed", str(args.seed),
                 "--setup-probe"]
    result, meta = harness.run(args.workload, args.seed, args.seconds,
                               bool(args.trace), T0, probe_cmd=probe_cmd,
                               out_dir=BENCH / "out")
    for text in meta["failures"]:
        print("check failed: " + text, file=sys.stderr)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
