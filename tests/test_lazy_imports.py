"""What a process imports. The package loads each export on first access,
`cli` imports `commands` only to run a command other than `query`, and
`commands` imports `train` and `evaluation` only in the commands that use
them, so a `query` of a held id pays for none of them. Each case runs in a
fresh interpreter, because this one has imported every module already.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
LAZY = {"corrspace.datasets", "corrspace.evaluation", "corrspace.train"}
QUERY_MODULES = {"corrspace", "corrspace.cli", "corrspace.embed", "corrspace.errors", "corrspace.index"}
# what every command that `commands` defines loads
COMMAND_MODULES = QUERY_MODULES | {"corrspace.commands", "corrspace.core", "corrspace.datasets", "corrspace.files"}

# each subcommand's success path, and `--version`: its argv ({corpus}: the
# `corpus` fixture's files, {tmp}: the test's own directory) and the
# corrspace modules it loads
LOADED_BY = {
    "gen": (["gen", "--family", "example1", "--n", "40", "--length", "16", "--output", "{tmp}/d.csv"], COMMAND_MODULES),
    "ingest": (["ingest", "--input", "{corpus}/data.csv", "--output", "{tmp}/d.csv"], COMMAND_MODULES),
    "split": (["split", "--data", "{corpus}/data.csv", "--output", "{tmp}/s.json"], COMMAND_MODULES),
    "train": (["train", "--data", "{corpus}/data.csv", "--m", "4", "--desk", "--iterations", "5",
               "--model-out", "{tmp}/m.chr1"], COMMAND_MODULES | {"corrspace.train"}),
    "index": (["index", "--data", "{corpus}/data.csv", "--method", "learned-order", "--model", "{corpus}/model.chr1",
               "--output", "{tmp}/i.cix1"], COMMAND_MODULES),
    "eval": (["eval", "--data", "{corpus}/data.csv", "--methods", "dft", "--m-values", "4", "--k-values", "3",
              "--no-timing", "--report-out", "{tmp}/r.csv"], COMMAND_MODULES | {"corrspace.train", "corrspace.evaluation"}),
    "bench": (["bench", "--n", "50", "--m", "4", "--k", "3", "--queries", "5", "--length", "16", "--hidden-size", "8"],
              COMMAND_MODULES | {"corrspace.train", "corrspace.evaluation"}),
    "query": (["query", "--index", "{corpus}/learned.cix1", "--query-id", "3", "--k", "5"], QUERY_MODULES),
    "--version": (["--version"], QUERY_MODULES),
}

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


# what a query of a version-3 index needs none of: OpenSSL's hash, and `dataclasses`
UNUSED_BY_QUERY = {"hashlib", "_hashlib", "dataclasses", "corrspace.commands"}


def modules_after(argv, also=()):
    """(exit code, the corrspace modules loaded, then those of `also`) after
    `cli.main(argv)` in a fresh interpreter."""
    return python(
        "import json, sys\n"
        "from corrspace import cli\n"
        "try:\n"
        f"    code = cli.main({list(map(str, argv))!r})\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "print(json.dumps([code, sorted(m for m in sys.modules\n"
        f"                                if m.split('.')[0] == 'corrspace' or m in {sorted(also)!r})]))\n"
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
    # the index is version 3: it holds its model, so no model file is hashed
    code, modules = modules_after(
        ["query", "--index", corpus / "learned.cix1", "--data", corpus / "data.csv", "--query-id", "3", "--k", "5"],
        also=UNUSED_BY_QUERY,
    )
    assert code == 0
    assert set(modules) == QUERY_MODULES


def test_query_of_a_learned_version_2_index_is_refused_unhashed(corpus, tmp_path):
    # a learned version-2 index names its model file and that file's sha256:
    # the query refuses it without opening or hashing the model
    v2 = tmp_path / "v2.cix1"
    assert python(
        "import json\n"
        "from corrspace.index import load_index, save_index\n"
        f"tree, meta = load_index({str(corpus / 'learned.cix1')!r})\n"
        f"save_index(tree, {str(v2)!r}, meta)\n"
        "print(json.dumps('model_sha256' in meta))\n"
    )
    code, modules = modules_after(["query", "--index", v2, "--query-id", "3", "--k", "5"], also=UNUSED_BY_QUERY)
    assert code == 24
    assert set(modules) == QUERY_MODULES


@pytest.mark.parametrize("name", ["ingest", "index"])
def test_a_command_run_as_main_imports_no_second_cli(corpus, tmp_path, name):
    # under `python -m corrspace.cli` the module is `__main__`: the commands
    # module must not import `corrspace.cli`, which would compile and run it again
    argv = {
        "ingest": ["ingest", "--input", corpus / "data.csv", "--output", tmp_path / "out.csv"],
        "index": ["index", "--data", corpus / "data.csv", "--method", "learned-order", "--model",
                  corpus / "model.chr1", "--output", tmp_path / "out.cix1"],
    }[name]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "corrspace.cli", *map(str, argv)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    imported = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")}
    assert "corrspace.commands" in imported
    assert "corrspace.cli" not in imported


def test_ingest_loads_no_training_or_evaluation(corpus, tmp_path):
    code, modules = modules_after(["ingest", "--input", corpus / "data.csv", "--output", tmp_path / "out.csv"])
    assert code == 0
    assert "corrspace.datasets" in modules
    assert not {"corrspace.train", "corrspace.evaluation"} & set(modules)


@pytest.mark.parametrize("name", list(LOADED_BY))
def test_each_subcommand_loads_only_the_modules_it_uses(corpus, tmp_path, name):
    argv, loaded = LOADED_BY[name]
    code, modules = modules_after([arg.format(corpus=corpus, tmp=tmp_path) for arg in argv])
    assert code == 0
    assert set(modules) == loaded


def test_import_corrspace_loads_no_submodule_and_no_numpy():
    assert python(
        "import json, sys\n"
        "import corrspace\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('corrspace.') or m.split('.')[0] == 'numpy')))\n"
    ) == []


def test_an_unknown_command_is_no_cli_attribute():
    assert python(
        "import json, sys\n"
        "from corrspace import cli\n"
        "try:\n"
        "    cli.cmd_bogus\n"
        "    raised = False\n"
        "except AttributeError:\n"
        "    raised = True\n"
        "print(json.dumps([raised, 'corrspace.commands' in sys.modules]))\n"
    ) == [True, False]


def test_commands_defines_every_subcommand_but_query():
    defined, subcommands = python(
        "import json\n"
        "from corrspace import cli, commands\n"
        "print(json.dumps([sorted(name for name in vars(commands) if name.startswith('cmd_')), list(cli.SUBCOMMANDS)]))\n"
    )
    assert defined == sorted(f"cmd_{name}" for name in subcommands if name != "query")


def test_version_loads_none_of_the_lazy_modules():
    code, modules = modules_after(["--version"])
    assert code == 0
    assert not (LAZY | {"corrspace.commands"}) & set(modules)


def test_every_export_is_its_modules_own_object():
    names = [name for names in EXPORTS.values() for name in names] + ["errors"]
    assert len(names) == 41
    wrong = python(
        "import importlib, json\n"
        "import corrspace\n"
        f"exports = {EXPORTS!r}\n"
        "wrong = [name for module, names in exports.items() for name in names\n"
        "         if getattr(corrspace, name) is not getattr(importlib.import_module(module), name)]\n"
        "wrong += [name for name in ('errors', 'core', 'datasets', 'embed', 'evaluation', 'index')  # the submodules\n"
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


def unused_imports(source):
    """The names `source` imports at any depth and never reads: a name
    counts as read where an expression loads it, or where `__all__` lists it."""
    tree = ast.parse(source)
    imported = {
        (alias.asname or alias.name).split(".")[0]: node.lineno
        for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant) and isinstance(c.value, str)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in read)


def test_the_scan_finds_an_unused_import():
    assert unused_imports("import os\nfrom dataclasses import dataclass, field\n\n@dataclass\nclass A:\n    pass\n") == [
        "field (line 2)", "os (line 1)",
    ]
    assert unused_imports("import os.path\nfrom .x import y as z\n__all__ = ['z']\nos.sep\n") == []


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "corrspace").glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports(path.read_text()) == []
