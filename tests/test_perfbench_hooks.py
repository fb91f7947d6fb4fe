"""The benchmark under perfbench/ reaches into the program by name: the
tracer wraps public functions for its per-layer metrics, and the workloads
import the program's API. Renaming or deleting one of those names would drop
a metric or break a workload without any other test failing.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import corrspace

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
WORKLOADS = sorted(PERFBENCH.glob("wl_*.py"))


def test_tracer_finds_every_target():
    # in a subprocess: `install` wraps the program's functions in place
    code = (
        "import json, sys\n"
        f"sys.path.insert(0, {str(PERFBENCH)!r})\n"
        "from tracer import Tracer\n"
        "t = Tracer()\n"
        "t.install()\n"
        "print(json.dumps(sorted(t.missing)))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert json.loads(out.stdout) == []


def test_traced_train_records_every_training_span():
    # the per-layer training metrics are medians over these spans; a target
    # the training loop stops calling by its traced name would zero a metric
    # without `missing` naming it. Order loss, as the `train` workload runs it.
    code = (
        "import collections, json, sys\n"
        f"sys.path.insert(0, {str(PERFBENCH)!r})\n"
        "from tracer import Tracer\n"
        "t = Tracer()\n"
        "t.install()\n"
        "from corrspace import gen_example1, split\n"
        "from corrspace.train import ORDER, desk_config, train\n"
        "ds = gen_example1(40, 16, seed=0)\n"
        f"train(ds, split(ds, seed=0), desk_config(m=4, loss_kind=ORDER, iterations=3), log_path={str(os.devnull)!r})\n"
        "top = [i for i, s in enumerate(t.spans) if s[0] == 'train.train']\n"
        "inside = collections.Counter(s[0] for s in t.spans if s[3] in top)\n"
        "print(json.dumps([len(top), inside]))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    n_train, inside = json.loads(out.stdout)
    assert n_train == 1
    assert inside["train.loss_and_gradient"] == inside["train.adam_step"] == 3  # one per iteration
    assert inside["train.sample_batch"] == 3 + 2  # and the validation batch and the log's batch 0
    assert inside["train.validation"] == 3  # validation loss at iterations 0 and 3, batch 0's loss


def test_traced_cli_records_one_span_per_command(tmp_path):
    # the `cli.*` metrics come from the tracer's wrappers on `cli.cmd_*`,
    # installed after import; `main` must reach the commands through them,
    # `cmd_ingest` and `cmd_index` too, which `cli` reaches in `commands`
    code = (
        "import collections, json, sys\n"
        f"sys.path.insert(0, {str(PERFBENCH)!r})\n"
        "from tracer import Tracer\n"
        "import corrspace.cli as cli\n"
        "t = Tracer()\n"
        "t.install()\n"
        f"tmp = {str(tmp_path)!r}\n"
        "argvs = [\n"
        "    ['gen', '--family', 'example1', '--n', '40', '--length', '16', '--output', tmp + '/raw.csv'],\n"
        "    ['ingest', '--input', tmp + '/raw.csv', '--format', 'csv_id', '--output', tmp + '/data.csv'],\n"
        "    ['index', '--data', tmp + '/data.csv', '--m', '4', '--output', tmp + '/data.cix'],\n"
        "    ['query', '--index', tmp + '/data.cix', '--query-id', '3', '--k', '5'],\n"
        "]\n"
        "codes = [cli.main(argv) for argv in argvs]\n"
        "spans = collections.Counter(s[0] for s in t.spans if s[0].startswith('cli.'))\n"
        "print(json.dumps([codes, spans, sorted(name for name in t.missing if name.startswith('cli.'))]))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    codes, spans, missing = json.loads(out.stdout.splitlines()[-1])
    assert codes == [0, 0, 0, 0]
    assert spans == {"cli.ingest": 1, "cli.index": 1, "cli.query": 1}
    assert missing == []


def corrspace_names(path):
    """(module, name) for each `from corrspace... import name` in the file,
    and each `alias.name` on a module a function binds with
    `alias = importlib.import_module("corrspace...")`."""
    tree = ast.parse(path.read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "corrspace":
            names |= {(node.module, alias.name) for alias in node.names}
    for fn in (n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)):
        modules = {}
        for node in ast.walk(fn):
            if (
                isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Attribute)
                and node.value.func.attr == "import_module"
                and isinstance(node.value.args[0], ast.Constant)
                and node.value.args[0].value.startswith("corrspace")
            ):
                modules[node.targets[0].id] = node.value.args[0].value
        for node in ast.walk(fn):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
                names.add((modules[node.value.id], node.attr))
    return names


@pytest.mark.parametrize("path", WORKLOADS, ids=lambda p: p.name)
def test_workload_names_exist(path):
    names = corrspace_names(path)
    assert names  # the scan found the workload's imports
    missing = [f"{mod}.{name}" for mod, name in sorted(names) if not hasattr(importlib.import_module(mod), name)]
    assert missing == []


def test_query_workload_reads_normalized_values():
    # the `query` workload answers each op from `core.normalize(core.TimeSeries(...)).values`
    values = corrspace.normalize(corrspace.TimeSeries(id=3, values=np.arange(8.0))).values
    assert values.shape == (8,) and abs(float(values @ values) - 1.0) <= 1e-15
