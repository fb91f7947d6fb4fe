"""Child process for the in-process workloads: `worker.py <module> <job.json>`.

Calls `<module>.phase(job, name, seconds, tracer)`, which makes the
program's calls: untraced for all of `job["seconds"]`, or with `job["trace"]`
untraced for half and traced for the other half. Writes the phases' results,
and the peak RSS of an untraced run, to `job["out"]` as JSON.
"""

import importlib
import json
import sys

import common
from tracer import Tracer

if __name__ == "__main__":
    with open(sys.argv[2]) as fh:
        job = json.load(fh)
    module = importlib.import_module(sys.argv[1])
    result = {}
    if job["trace"]:
        result["plain"] = module.phase(job, "plain", job["seconds"] / 2, None)
        tracer = Tracer()
        tracer.install()
        result["traced"] = module.phase(job, "traced", job["seconds"] / 2, tracer)
        tracer.dump(job["spans"])
    else:
        result["plain"] = module.phase(job, "plain", job["seconds"], None)
        result["rss_mb"] = common.peak_rss_mb()
    with open(job["out"], "w") as fh:
        json.dump(result, fh)
