"""corrspace benchmark: `python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1`.

Runs one workload against the program in `src/` of the checkout it sits in,
checks every answer against a computation made apart from the program, and
prints one JSON line last: `correct`, `attempted`, `failed` and `metrics`
(the end-to-end metrics with `--trace 0`, the per-layer ones with
`--trace 1`). See README.md for the workloads and the metrics.
"""

import argparse
import json
import os
import shutil
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if not (SRC / "corrspace" / "__init__.py").is_file():
    sys.exit(f"run.py: no program to measure: {SRC / 'corrspace'} is missing")

# One client, and no more BLAS threads than cores (at most 2), in this
# process and in every child it starts; set before numpy is first imported.
BLAS_THREADS = str(min(2, len(os.sched_getaffinity(0))))
os.environ.update({var: BLAS_THREADS for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
sys.path.insert(0, str(SRC))

import common  # noqa: E402
import wl_cli  # noqa: E402
import wl_query  # noqa: E402
import wl_train  # noqa: E402

WORKLOADS = {"query": wl_query, "cli_query": wl_cli, "train": wl_train}
UNITS = json.loads((HERE.parent / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for key in ("end_to_end", "per_layer") for m in UNITS[key]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")

    # SIGTERM unwinds like Ctrl-C, so children are killed and the work directory removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    work = common.WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        correct, attempted, failed, metrics = WORKLOADS[args.workload].run(
            args.seed, args.seconds, bool(args.trace), work
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
