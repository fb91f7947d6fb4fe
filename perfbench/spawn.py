"""Runs CLI processes and measures each one: `spawn.py <job.json>`.

Job: {"commands": [argv, ...], "kernel": argv, "loop": bool, "seconds": s, "out": path}.
Without "loop" every command runs once, in order; with it the commands run
as a closed loop (one at a time) until `seconds` pass.
Each process is timed from start to exit, its stdout goes to
`<out>.<n>.stdout`, and its peak RSS comes from wait4. The "kernel"
command runs before the first command and after each one as a speed block
(`csv_kernel.py`, see common.py), and the summary gives each command's time
scaled to the reference speed.

This process imports no numpy and holds no data: a child started by
fork/vfork begins with its parent's resident-set high-water mark, so the
peak RSS reported for each command is its own only because this parent's
is small.
"""

import json
import os
import subprocess
import sys
import time

import common


def main(job_path):
    with open(job_path) as fh:
        job = json.load(fh)
    records = []

    def run(i):
        out = f"{job['out']}.{len(records)}.stdout"
        with open(out, "wb") as stdout:
            t0 = time.perf_counter()
            proc = subprocess.Popen(job["commands"][i], stdout=stdout, env=common.child_env(), cwd=common.ROOT)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        records.append({"command": i, "wall": wall, "rc": proc.returncode, "rss_mb": usage.ru_maxrss / 1024.0,
                        "stdout": out})
        if proc.returncode != 0:
            raise RuntimeError(f"exit code {proc.returncode}: {' '.join(job['commands'][i])}")

    def block():
        t0 = time.perf_counter()
        subprocess.run(job["kernel"], check=True, env=common.child_env(), cwd=common.ROOT)
        return time.perf_counter() - t0

    if job["loop"]:
        # one untimed op first: the first CLI process after set-up took 3.5-4.1 s
        # where the next ones took about 2.9 s
        subprocess.run(job["commands"][0], stdout=subprocess.DEVNULL, env=common.child_env(), cwd=common.ROOT)
        times, failed = common.closed_loop(len(job["commands"]), job["seconds"], run,
                                           block=block, ref=common.CSV_KERNEL_REF_S)
        summary = {"times": times, "failed": failed}
    else:
        failed, times, before = 0, [], block()
        for i in range(len(job["commands"])):
            try:
                run(i)
            except RuntimeError as exc:
                failed += 1
                print(exc, file=sys.stderr)
            after = block()
            times.append(common.scale(records[-1]["wall"], before, after, common.CSV_KERNEL_REF_S))
            before = after
        summary = {"times": times, "failed": failed}
    with open(job["out"], "w") as fh:
        json.dump(dict(summary, records=records), fh)


if __name__ == "__main__":
    main(sys.argv[1])
