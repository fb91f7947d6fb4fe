"""Paths, child processes and the closed loop shared by the workloads.

Standard library only at import time: `spawn.py` imports it and must stay
small, because a child inherits its peak RSS (see `spawn.py`).

Every timing the benchmark reports end to end is scaled to a reference
machine speed. The host's speed drifts by a quarter and more within minutes
(a fixed pure-Python loop took 38-64 ms in the medians of 10 s windows over
two minutes), which no run length averages away. So the loop times a fixed
kernel between ops, a "speed block", and each op's time is multiplied by
the kernel's reference time over its time around the op: a time in the
metrics is the time the op would take on a machine that runs the kernel in
its reference time. Each workload's kernel does the kind of work its ops
spend their time on. `query` uses `speed_block`, a small pure-Python kernel
(reference `CAL_REF_S`); `cli_query` a process that parses a fixed CSV
file (`csv_kernel.py`); `train` a few fixed matrix products
(`wl_train.matmul_block`). Each tracks its workload's op time better than
the others do (README.md).
"""

import heapq
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
# a child may run this long beyond its job's `seconds` (set-up, the last round, writing out)
CHILD_SLACK_S = 150


def child_env() -> dict:
    """Environment of every process that runs the program (BLAS caps are inherited)."""
    return dict(os.environ, PYTHONPATH=str(SRC))


def run_worker(module: str, job: dict, work: Path) -> dict:
    """Run `module.phase` in a fresh interpreter (`worker.py`) and return what it wrote.

    The program's calls happen in that process, so its peak RSS holds none of
    the benchmark's reference arrays.
    """
    return run_job([str(HERE / "worker.py"), module], job, work / module)


def run_job(script: list, job: dict, stem: Path) -> dict:
    """Run `python3 <script...> <stem>.job.json` to its end; return the JSON it wrote to `<stem>.result.json`.

    The child leads its own process group, so a timeout kills whatever it
    started as well. It is killed `CHILD_SLACK_S` after the job's `seconds`.
    """
    job = dict(job, out=f"{stem}.result.json")
    spec = Path(f"{stem}.job.json")
    spec.write_text(json.dumps(job))
    proc = subprocess.Popen([sys.executable, *script, str(spec)], env=child_env(), cwd=ROOT, start_new_session=True)
    try:
        rc = proc.wait(timeout=CHILD_SLACK_S + job.get("seconds", 0.0))
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if rc != 0:
        raise RuntimeError(f"{' '.join(script)} exited with {rc}")
    return json.loads(Path(job["out"]).read_text())


# 48 rows of 128 numbers printed to 6 digits: parse them, centre them, keep
# the 10 largest squared deviations in a heap. That is the kind of work the
# program's ops do in Python (CSV parsing, tree traversal with a heap);
# one pass takes about 2.5 ms.
_CAL_ROWS = [",".join(f"{((i * 7919 + j * 104729) % 100003) / 997.0:.6g}" for j in range(128)) for i in range(48)]
CAL_REPS = 4  # passes per speed block
# Reference times: about what each kernel took on the machine of the
# README's figures. They fix the units of the scaled times, not their spread.
CAL_REF_S = 0.0025  # `speed_block`
CSV_KERNEL_REF_S = 0.4  # `csv_kernel.py` on `wl_cli.write_kernel_csv`'s file


def _kernel_pass() -> float:
    t0 = time.perf_counter()
    heap = []
    for line in _CAL_ROWS:
        nums = [float(tok) for tok in line.split(",")]
        mean = sum(nums) / len(nums)
        for j, x in enumerate(nums):
            d = (x - mean) * (x - mean)
            if len(heap) < 10:
                heapq.heappush(heap, (-d, j))
            elif -d > heap[0][0]:
                heapq.heapreplace(heap, (-d, j))
    return time.perf_counter() - t0


def speed_block(reps: int = CAL_REPS) -> float:
    """Median seconds of `reps` passes of the fixed kernel: the machine's speed now."""
    return statistics.median(_kernel_pass() for _ in range(reps))


def scale(seconds: float, before: float, after: float, ref: float = CAL_REF_S) -> float:
    """`seconds` measured between two speed blocks, at the speed at which a block takes `ref`."""
    return seconds * ref / ((before + after) / 2)


def scaled_reps(fn, reps: int, block=speed_block, ref=CAL_REF_S) -> list:
    """Call `fn()` `reps` times, each between two speed blocks; scaled seconds per call."""
    blocks, raw = [block()], []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        raw.append(time.perf_counter() - t0)
        blocks.append(block())
    return [scale(t, blocks[j], blocks[j + 1], ref) for j, t in enumerate(raw)]


def closed_loop(n_ops: int, seconds: float, op, after=None, round_size=1, cal_every=1,
                block=speed_block, ref=CAL_REF_S) -> tuple:
    """One client, one op at a time, cycling through ops 0..n_ops-1 in whole
    rounds of `round_size` ops until `seconds` have passed. `op(i)` raises on
    failure; `after(i, result)` runs outside the timed span. A speed block
    (`block()`, seconds; `ref` at the reference speed) runs before every
    `cal_every`-th op and once after the last.

    Returns the scaled seconds of each successful op (`scale` with the
    blocks on either side of it); `failed` counts the others.
    """
    raw, block_of, blocks, failed, done = [], [], [], 0, 0
    start = time.perf_counter()
    while True:
        for _ in range(round_size):
            if done % cal_every == 0:
                blocks.append(block())
            i = done % n_ops
            done += 1
            t0 = time.perf_counter()
            try:
                result = op(i)
            except Exception as exc:  # a failed op counts against the run, the loop goes on
                failed += 1
                print(f"op {i} failed: {exc!r}", file=sys.stderr)
                continue
            raw.append(time.perf_counter() - t0)
            block_of.append(len(blocks) - 1)
            if after is not None:
                after(i, result)
        if time.perf_counter() - start >= seconds:
            blocks.append(block())
            print(f"loop: {len(raw)} ops, unscaled median {statistics.median(raw) * 1e3:.4g} ms, "
                  f"median speed block {statistics.median(blocks) * 1e3:.4g} ms", file=sys.stderr)
            times = [scale(t, blocks[b], blocks[b + 1], ref) for t, b in zip(raw, block_of)]
            return times, failed


def peak_rss_mb() -> float:
    """Peak resident set of this process since it exec'd, in MiB.

    `VmHWM` belongs to the process's own address space; `ru_maxrss` would
    also carry the peak of the parent that spawned it.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def warm(*paths) -> None:
    """Read files once so that every timed pass meets the same page cache."""
    for path in paths:
        with open(path, "rb") as fh:
            while fh.read(1 << 22):
                pass


def loop_metrics(times, failed) -> dict:
    """Latency and throughput of one closed loop from its scaled op times, in
    the units BENCHMARK.json names. With one client, throughput is successful
    ops over the time spent in them."""
    import numpy as np

    return {
        "op_p50_ms": float(np.percentile(times, 50)) * 1e3,
        "op_p99_ms": float(np.percentile(times, 99)) * 1e3,
        "ops_per_s": len(times) / sum(times),
        "attempted": len(times) + failed,
        "failed": failed,
    }
