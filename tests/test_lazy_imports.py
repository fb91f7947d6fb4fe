"""What a process imports. The package loads `core`, `datasets`, `evaluation`
and `train` on first use, and `cli` imports them in the commands that use
them, so a `query` of a held id pays for none of them. Each case runs in a fresh
interpreter, because this one has imported every module already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
LAZY = {"corrspace.datasets", "corrspace.evaluation", "corrspace.train"}
QUERY_MODULES = {"corrspace", "corrspace.cli", "corrspace.embed", "corrspace.errors", "corrspace.index"}

# every name the package exports, by the module that defines it
EXPORTS = {
    "corrspace.core": ("NormalizedSeries", "TimeSeries", "normalize"),
    "corrspace.datasets": ("Dataset", "SplitDataset", "gen_example1", "gen_example2", "load_csv", "save_csv", "split"),
    "corrspace.embed": (
        "DftTruncationEmbedder", "DownSampleEmbedder", "LearnedEmbedder", "NetworkParams", "feature_width",
        "features_matrix", "load_model", "save_model",
    ),
    "corrspace.evaluation": (
        "EvalReport", "SweepConfig", "approximation_loss", "latency_benchmark", "pair_rows", "precision", "sweep",
    ),
    "corrspace.index": ("KdTree", "QueryResult", "load_index", "save_index", "threshold_radius_sq"),
    "corrspace.train": (
        "TrainConfig", "adam_step", "batch_loss", "desk_config", "init_params", "loss_and_gradient",
        "pair_batch_from", "train", "triple_batch_from", "xavier_init",
    ),
}


def python(code):
    """The last stdout line of `code` run in a fresh interpreter, read as JSON."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def modules_after(argv):
    """(exit code, the corrspace modules loaded) after `cli.main(argv)` in a fresh interpreter."""
    return python(
        "import json, sys\n"
        "from corrspace import cli\n"
        "try:\n"
        f"    code = cli.main({list(map(str, argv))!r})\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "print(json.dumps([code, sorted(m for m in sys.modules if m.split('.')[0] == 'corrspace')]))\n"
    )


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A dataset and a learned-order index over it, made in a fresh interpreter."""
    tmp = tmp_path_factory.mktemp("corpus")
    data, model, index = tmp / "data.csv", tmp / "model.chr1", tmp / "learned.cix1"
    argvs = [
        ["gen", "--family", "example1", "--n", "60", "--length", "16", "--output", data],
        ["train", "--data", data, "--m", "4", "--desk", "--iterations", "5", "--model-out", model],
        ["index", "--data", data, "--method", "learned-order", "--m", "4", "--model", model, "--output", index],
    ]
    codes = python(
        "import json\n"
        "from corrspace import cli\n"
        f"print(json.dumps([cli.main(argv) for argv in {[list(map(str, a)) for a in argvs]!r}]))\n"
    )
    assert codes == [0, 0, 0]
    return tmp


def test_query_of_a_held_id_loads_only_the_query_path(corpus):
    code, modules = modules_after(
        ["query", "--index", corpus / "learned.cix1", "--data", corpus / "data.csv", "--query-id", "3", "--k", "5"]
    )
    assert code == 0
    assert set(modules) == QUERY_MODULES


def test_ingest_loads_no_training_or_evaluation(corpus, tmp_path):
    code, modules = modules_after(["ingest", "--input", corpus / "data.csv", "--output", tmp_path / "out.csv"])
    assert code == 0
    assert "corrspace.datasets" in modules
    assert not {"corrspace.train", "corrspace.evaluation"} & set(modules)


def test_version_loads_none_of_the_lazy_modules():
    code, modules = modules_after(["--version"])
    assert code == 0
    assert not LAZY & set(modules)


def test_every_export_is_its_modules_own_object():
    names = [name for names in EXPORTS.values() for name in names] + ["errors"]
    assert len(names) == 41
    wrong = python(
        "import importlib, json\n"
        "import corrspace\n"
        f"exports = {EXPORTS!r}\n"
        "wrong = [name for module, names in exports.items() for name in names\n"
        "         if getattr(corrspace, name) is not getattr(importlib.import_module(module), name)]\n"
        "wrong += [name for name in ('errors', 'core', 'datasets', 'evaluation')  # the submodules themselves\n"
        "          if getattr(corrspace, name) is not importlib.import_module(f'corrspace.{name}')]\n"
        "listed = dir(corrspace)\n"
        f"wrong += [name for name in {names!r} if name not in listed or name not in corrspace.__all__]\n"
        "print(json.dumps(wrong))\n"
    )
    assert wrong == []


def _train_import_lines():
    """The perfbench workloads' `from corrspace import ...` lines that bind `train`."""
    lines = []
    for path in sorted((ROOT / "perfbench").glob("wl_*.py")):
        for line in map(str.strip, path.read_text().splitlines()):
            names = line.removeprefix("from corrspace import ").split(",")
            if line.startswith("from corrspace import ") and "train" in map(str.strip, names):
                lines.append(line)
    return lines


PRELUDES = {
    **{f"perfbench line {i}": line for i, line in enumerate(_train_import_lines())},
    "import corrspace.train": "import corrspace.train",
    "import corrspace.evaluation": "import corrspace.evaluation",
    "cli eval": (  # {tmp}: the test's own directory
        "from corrspace import cli\n"
        "assert cli.main(['gen', '--family', 'example1', '--n', '40', '--length', '16', '--output', '{tmp}/d.csv']) == 0\n"
        "assert cli.main(['eval', '--data', '{tmp}/d.csv', '--methods', 'dft', '--m-values', '4', '--k-values', '3',\n"
        "                 '--no-timing', '--report-out', '{tmp}/r.csv']) == 0"
    ),
}


def test_the_workloads_bind_train_from_the_package():
    assert len(_train_import_lines()) >= 1


@pytest.mark.parametrize("prelude", list(PRELUDES.values()), ids=list(PRELUDES))
def test_train_is_the_function_whatever_was_imported_first(prelude, tmp_path):
    # `train` names a submodule and its function; importing the submodule by
    # any route must leave the package's `train` the function
    same = python(
        "import json, sys\n"
        f"{prelude.format(tmp=tmp_path)}\n"
        "import corrspace\n"
        "from corrspace import train\n"
        "function = sys.modules['corrspace.train'].train\n"
        "print(json.dumps([train is function, corrspace.train is function]))\n"
    )
    assert same == [True, True]
