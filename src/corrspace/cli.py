"""Command-line front end: gen/ingest/split/train/index/query/eval/bench.

Config precedence is flags > --config JSON file > built-in defaults (the
full-scale training profile). Every run that writes an artifact writes a
manifest JSON recording the subcommand, fully resolved parameters and
SHA-256 hashes of inputs/outputs; `replay_manifest` reruns a manifest and
must reproduce binary artifacts bit-identically.

This module holds every subcommand's flags and defaults (`SUBCOMMANDS`),
the parser and `query`. The other commands live in `commands`, which is
imported when one of them runs: a query compiles none of them.
"""

import argparse
import gc
import json
import os
import sys
from typing import NamedTuple

import numpy as np

from . import __version__
from .embed import APPROXIMATE, FIXED_EMBEDDERS, LOSS_OF, METHODS, ORDER, U32, U64, embedder_for
from .errors import CorrSpaceError, CorruptArtifact, LengthMismatch, MissingArtifact, UsageError, check_range, flag, is_int
from .index import load_index, rank, threshold_radius_sq

# `core` and `datasets` are imported by the query modes that use them: a
# `query` answered from the index loads neither.


def __getattr__(name):
    # `cmd_<subcommand>` for every subcommand but `query`, which is defined below
    if name.startswith("cmd_") and name[4:] in SUBCOMMANDS:
        from . import commands

        return getattr(commands, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _resolve(ns, defaults: dict) -> dict:
    """flags > config file > defaults, for every key in `defaults`."""
    from_file = {}
    if getattr(ns, "config", None):
        from .files import read_json

        from_file = _checked(read_json(ns.config, "config file", UsageError), f"config file {ns.config}", defaults)
    flags = {key: getattr(ns, key) for key in defaults if getattr(ns, key, None) is not None}
    return {**defaults, **from_file, **flags}


def _checked(doc, source, defaults: dict) -> dict:
    """The values of `doc`, a config file's object or a manifest's params,
    each given its flag's checks (`_config_value`); a JSON null is absent."""
    if not isinstance(doc, dict):
        raise UsageError(f"{source} does not hold a JSON object")
    unknown = set(doc) - set(defaults)
    if unknown:
        raise UsageError(f"{source}: unknown keys {sorted(unknown)}")
    return {key: _config_value(source, key, value) for key, value in doc.items() if value is not None}


# flags without a `type` whose value the subcommand parses as a list
_LIST_KEYS = ("ratios", "m_values", "k_values", "methods")


def _config_value(source, key, value):
    """`value` of `key` in `source`, given its flag's checks in `FLAGS`: its
    choices, and its type (bool for a --x/--no-x flag), which the value
    must have as JSON gives it: "5" is no int, nor is 2.5, nor true. A flag
    without a type takes a string, or a list where the code parses lists."""
    spec = FLAGS[key]
    kind = bool if spec.get("action") is argparse.BooleanOptionalAction else spec.get("type")
    try:
        typed = kind(value) if kind else value
    except (TypeError, ValueError, OverflowError):
        typed = None  # unequal to every value: nulls were dropped
    untyped_ok = kind or isinstance(value, str) or key in _LIST_KEYS and isinstance(value, list)
    if (
        typed != value or not untyped_ok or (kind is bool) != isinstance(value, bool)
        or spec.get("choices") and typed not in spec["choices"]
    ):
        raise UsageError(f"{source}: {key} = {json.dumps(value)} is not a valid {flag(key)}")
    return typed


# the methods an index is built with
_EMBEDDER_METHODS = (*FIXED_EMBEDDERS, *LOSS_OF)


# Sizes and seeds are bounded by the widest count and seed the CHR1 and CIX1
# headers store, so an absurd one is a usage error before any work.
SIZE, SEED = (1, U32), (0, U64)


# ---------------------------------------------------------------- subcommands
# (`query` is defined here, the others in `commands`)

GEN_DEFAULTS = {
    "family": None, "n": 2000, "length": 128, "m": 8, "eps": 0.01, "seed": 0,
    "output": None, "manifest": None,
}

INGEST_DEFAULTS = {"input": None, "format": "csv", "output": None, "manifest": None}

SPLIT_DEFAULTS = {
    "data": None, "format": "csv_id", "ratios": "0.8,0.1,0.1", "seed": 0,
    "output": None, "manifest": None,
}

TRAIN_DEFAULTS = {
    "data": None, "format": "csv_id", "split": None, "ratios": "0.8,0.1,0.1",
    "loss": APPROXIMATE, "m": None, "desk": False,
    "learning_rate": None, "batch_size": None, "iterations": None, "hidden_size": None,
    "seed": 0, "model_out": None, "log_out": None, "manifest": None,
}

INDEX_DEFAULTS = {
    "data": None, "format": "csv_id", "split": None, "partition": "all",
    "method": "dft", "m": None, "model": None, "output": None, "manifest": None,
}

QUERY_DEFAULTS = {
    "index": None, "data": None, "format": "csv_id",
    "query_id": None, "query_file": None, "k": 10, "threshold": None, "slack": 1.0,
    "exact": False,
}

EVAL_DEFAULTS = {
    "data": None, "format": "csv_id", "methods": None, "m_values": "8",
    "k_values": "10,100", "seed": 0, "ratios": "0.8,0.1,0.1", "desk": False,
    "max_queries": None, "timing": True, "report_out": None, "manifest": None,
}

BENCH_DEFAULTS = {
    "n": 10000, "m": 16, "k": 100, "queries": 200, "length": 128,
    "hidden_size": 128, "seed": 0, "model": None, "report_out": None, "manifest": None,
}


def cmd_query(p):
    """Answer from the index or, with --exact, from every series of --data.
    Each mode sets up `search(q, k)`: the ids, d² and correlations to print
    of the k nearest to `q`, or of every --threshold hit when k is None. An
    id the index holds is queried at its stored point: --data is not read."""
    if (p["query_id"] is None) == (p["query_file"] is None):
        raise UsageError("exactly one of --query-id / --query-file is required")
    if p["threshold"] is not None and not -1.0 <= p["threshold"] <= 1.0:
        raise UsageError(f"--threshold must be a correlation in [-1, 1], got {p['threshold']}")
    if not 0 < p["slack"] < np.inf:
        raise UsageError(f"--slack must be positive and finite, got {p['slack']}")
    # before the index or --data is read; not `isfile`, as a pipe such as /dev/stdin is read
    if p["query_file"] is not None and (not os.path.exists(p["query_file"]) or os.path.isdir(p["query_file"])):
        raise MissingArtifact(f"query file not found: {p['query_file']}")
    ds = embedder = held = None
    if p["exact"]:
        if p["index"]:
            raise UsageError("--index is not taken with --exact: it answers from every series of --data")
        if not p["data"]:
            raise UsageError("--exact requires --data")
        from .datasets import load_csv

        ds = load_csv(p["data"], p["format"])
        h = ds.normalized_matrix()

        def search(q, k):
            corr = h @ q
            clipped = np.clip(corr, -1.0, 1.0)  # printed; ranked by the unclipped d², as `eval` ranks
            rows = np.arange(ds.n) if k is not None else np.flatnonzero(clipped >= p["threshold"])
            rows = rows[rank(2.0 - 2.0 * corr[rows], ds.ids[rows], k)]
            return ds.ids[rows], 2.0 - 2.0 * clipped[rows], clipped[rows]

        tag, length = "exact", ds.length
    else:
        if not p["index"]:
            raise UsageError("--index is required (or pass --exact)")
        tree, meta, model = load_index(p["index"], with_model=True)
        length = meta.get("series_length")
        # a learned version-2 index names a model file; tuples: a list or dict method is no key
        if model is None and meta.get("method") in tuple(LOSS_OF):
            raise CorruptArtifact(f"{p['index']}: holds no {meta['method']} model: rebuild it with `corrspace index`")
        if not (
            meta.get("method") in tuple(FIXED_EMBEDDERS if model is None else LOSS_OF)
            and is_int(meta.get("m")) and meta["m"] == tree.m and (length is None or is_int(length) and length > 0)
        ):
            raise CorruptArtifact(
                f"{p['index']}: index metadata lacks method or m, or does not fit its points of width {tree.m}: "
                f"method {meta.get('method')!r}, m {meta.get('m')!r}, series_length {length!r}"
            )
        embedder = embedder_for(meta["method"], meta["m"], model)

        def search(q, k):
            if k is None:
                res = tree.within_radius(q, threshold_radius_sq(p["threshold"], p["slack"]))
            else:
                res = tree.top_k(q, k)
            return res.ids, res.distances_sq, np.clip(1.0 - res.distances_sq, -1.0, 1.0)

        tag = f"method={meta['method']}, m={meta['m']}"
        held = tree.point(p["query_id"]) if p["query_id"] is not None else None
        if p["query_id"] is not None and held is None:
            if not p["data"]:
                raise UsageError(f"the index does not hold id {p['query_id']}: pass --data to embed its series")
            from .datasets import load_csv

            ds = load_csv(p["data"], p["format"])
        elif p["data"] and (not os.path.exists(p["data"]) or os.path.isdir(p["data"])):  # unread, yet must exist
            raise MissingArtifact(f"data file not found: {p['data']}")
    if held is not None:
        queries = [(f"id {p['query_id']}", held, int(p["query_id"]))]
    else:
        queries = _query_series(p, ds)
        for label, values, _ in queries:  # all checked before any is embedded or answered
            if length is not None and len(values) != length:
                raise LengthMismatch(
                    f"query {label} has length {len(values)}, the series searched have length {length}"
                )
        if embedder is not None:  # one row per call: a query's bits do not depend on the other rows
            queries = [(label, embedder.embed_matrix(v[np.newaxis])[0], self_id) for label, v, self_id in queries]
    for label, q, self_id in queries:
        # one more of the k nearest when the query's own id is to be dropped
        k = None if p["threshold"] is not None else p["k"] + (self_id is not None)
        ids, d2, corr = search(q, k)
        rows = np.arange(len(ids)) if self_id is None else np.flatnonzero(ids != self_id)
        print(f"# query {label} ({tag})")
        print("id dist2 corr_est")
        for r in rows if k is None else rows[: p["k"]]:
            print(f"{int(ids[r])} {d2[r]:.9g} {corr[r]:.9g}")
    return 0


def _query_series(p, ds):
    """(label, normalized values, excluded id) per query, in input order;
    `ds` is the --data dataset, which --query-id reads its row from."""
    if p["query_id"] is not None:
        rows = np.flatnonzero(ds.ids == p["query_id"])
        if len(rows) == 0:
            raise MissingArtifact(f"id {p['query_id']} not in {p['data']}")
        return [(f"id {p['query_id']}", ds.normalized_matrix(rows[:1])[0], int(p["query_id"]))]
    from .core import normalize_rows
    from .datasets import load_csv

    qds = load_csv(p["query_file"], "csv")
    # one call for all rows: `normalize_rows` gives each row the bits it has alone
    values = normalize_rows(qds.values, qds.ids)
    # labelled by data row: dropped constant rows keep their numbers
    return [(f"{p['query_file']}[{rid}]", row, None) for rid, row in zip(qds.ids, values)]


# ------------------------------------------------------------------- plumbing

# argparse keywords of each flag, by parameter key; a flag without a type
# takes a string. `build_parser` adds the flags and `_config_value` checks
# config and manifest values by this one table.
_BOOL = argparse.BooleanOptionalAction
FLAGS = {
    "config": {"help": "JSON file of parameter defaults"},
    "family": {"choices": ["example1", "example2"]},
    "n": {"type": int},
    "length": {"type": int, "help": "series length M"},
    "m": {"type": int, "help": "embedding dimension (gen: low-noise coefficient count of example2)"},
    "eps": {"type": float},
    "seed": {"type": int},
    "output": {},
    "manifest": {"help": "manifest output path"},
    "input": {},
    "format": {"choices": ["csv", "csv_id", "ucr"]},
    "data": {"help": "dataset (query: for --query-id and --exact)"},
    "ratios": {"help": "train,val,test fractions (train: used when no --split is given)"},
    "split": {"help": "split JSON from the split subcommand"},
    "loss": {"choices": [APPROXIMATE, ORDER]},
    "desk": {"action": _BOOL, "help": "small CI-scale training profile"},
    "learning_rate": {"type": float},
    "batch_size": {"type": int},
    "iterations": {"type": int},
    "hidden_size": {"type": int},
    "model_out": {},
    "log_out": {},
    "partition": {"choices": ["train", "val", "test", "all"]},
    "method": {"choices": list(_EMBEDDER_METHODS)},
    "model": {"help": "CHR1 model file (learned methods)"},
    "index": {},
    "query_id": {"type": int},
    "query_file": {"help": "CSV of query series (no id column)"},
    "k": {"type": int},
    "threshold": {"type": float, "help": "minimum correlation eta"},
    "slack": {"type": float, "help": "radius multiplier for --threshold"},
    "exact": {"action": _BOOL, "help": "brute-force oracle"},
    "methods": {"help": f"comma-separated from: {', '.join(METHODS)}"},
    "m_values": {},
    "k_values": {},
    "max_queries": {"type": int},
    "timing": {"action": _BOOL, "help": "--no-timing writes nan latencies for bit-reproducible reports"},
    "report_out": {},
    "queries": {"type": int},
}


class Subcommand(NamedTuple):
    """How `_run` runs `cmd_<name>`."""

    defaults: dict  # every parameter it takes, with its default
    help: str
    required: tuple = ()  # the parameters it cannot run without
    inputs: dict = {}  # the artifacts its manifest records, as {artifact: parameter key}
    outputs: dict = {}
    limits: dict = {}  # {parameter key: (lowest, highest)} of the numbers it takes; None is no bound


SUBCOMMANDS = {
    "gen": Subcommand(GEN_DEFAULTS, "generate a synthetic dataset", ("family", "output"), {}, {"data": "output"},
                      {"n": SIZE, "length": (None, U32), "seed": SEED}),  # `gen_example*` check M's low end
    "ingest": Subcommand(INGEST_DEFAULTS, "validate and canonicalize a dataset", ("input", "output"),
                         {"raw": "input"}, {"data": "output"}),
    "split": Subcommand(SPLIT_DEFAULTS, "write a train/val/test id partition", ("data", "output"),
                        {"data": "data"}, {"split": "output"}, {"seed": SEED}),
    "train": Subcommand(TRAIN_DEFAULTS, "train a learned embedder", ("data", "model_out", "m"),
                        {"data": "data", "split": "split"}, {"model": "model_out", "log": "log_out"},
                        # the low ends are `TrainConfig`'s
                        {"m": (None, U32), "hidden_size": (None, U32), "batch_size": (None, U32), "seed": (None, U64)}),
    "index": Subcommand(INDEX_DEFAULTS, "embed a dataset and build the k-d tree", ("data", "output"),
                        {"data": "data", "split": "split", "model": "model"}, {"index": "output"}),
    "query": Subcommand(QUERY_DEFAULTS, "top-k or threshold search against an index", limits={"k": (1, None)}),
    "eval": Subcommand(EVAL_DEFAULTS, "precision/gap/latency sweep over methods",
                       ("data", "report_out", "methods"), {"data": "data"}, {"report": "report_out"}, {"seed": SEED}),
    "bench": Subcommand(BENCH_DEFAULTS, "query latency benchmark", (), {"model": "model"}, {"report": "report_out"},
                        {"n": SIZE, "m": SIZE, "k": (1, None), "queries": SIZE, "hidden_size": SIZE,
                         "length": (2, U32), "seed": SEED}),  # a one-point series is constant
}


def build_parser(argv=()) -> argparse.ArgumentParser:
    """The parser of argv[0]'s subcommand alone when it names one, since
    building all eight subparsers is most of a parse; of all eight otherwise.
    Its usage line lists all eight either way."""
    ap = argparse.ArgumentParser(
        prog="corrspace",
        description="Correlation-preserving time-series embeddings with exact k-d tree search.",
    )
    ap.add_argument("--version", action="version", version=f"corrspace {__version__}")
    names = [argv[0]] if argv and argv[0] in SUBCOMMANDS else list(SUBCOMMANDS)
    # unset with all eight built: a metavar would replace "subcommand" in their errors
    metavar = "{" + ",".join(SUBCOMMANDS) + "}" if len(names) == 1 else None
    sub = ap.add_subparsers(dest="subcommand", required=True, metavar=metavar)
    for name in names:
        parser = sub.add_parser(name, help=SUBCOMMANDS[name].help)
        for key in ("config", *SUBCOMMANDS[name].defaults):
            parser.add_argument(flag(key), **FLAGS[key])
    return ap


def _parse(argv):
    """The namespace of `argv`, from one parse."""
    return build_parser(argv).parse_args(argv)


def _command(name):
    # looked up when it runs, not bound at import: a wrapper installed on
    # the module later (perfbench's tracer) must see the call; `cmd_query`
    # is this module's own, the others `__getattr__` takes from `commands`
    return getattr(sys.modules[__name__], f"cmd_{name}")


def _run(name, p) -> int:
    """Run `cmd_<name>` on the resolved parameters `p` after refusing an unset or
    empty required parameter, a number outside its limits, a --manifest with no
    output, an output that is a directory or in a missing one, and two outputs
    that name one file; write the manifest at --manifest or beside the first
    output."""
    spec = SUBCOMMANDS[name]
    missing = [flag(key) for key in spec.required if p[key] is None or p[key] == ""]
    if missing:
        raise UsageError(f"{' and '.join(missing)} {'is' if len(missing) == 1 else 'are'} required")
    for key, (low, high) in spec.limits.items():
        if p[key] is not None:
            check_range(key, low, high, p[key])
    outputs = [p[key] for key in spec.outputs.values() if p[key]]
    if p.get("manifest") and not outputs:
        flags, artifacts = " or ".join(map(flag, spec.outputs.values())), " or ".join(spec.outputs)
        raise UsageError(f"--manifest needs {flags}: without a {artifacts} {name} writes no artifact")
    manifest = p.get("manifest") or (f"{outputs[0]}.manifest.json" if outputs else None)
    written = {}  # the key of each output file, by its real path
    for key in (*spec.outputs.values(), "manifest"):
        path = manifest if key == "manifest" else p[key]
        if path and not os.path.isdir(os.path.dirname(str(path)) or "."):
            raise MissingArtifact(f"output directory not found: {path}")
        if path and os.path.isdir(path):
            raise MissingArtifact(f"output file not found: {path} is a directory")
        if path and (os.path.isfile(path) or not os.path.exists(path)):  # /dev/null or a pipe may take several
            first = written.setdefault(os.path.realpath(path), key)
            if first != key:
                raise UsageError(f"{flag(first)} and {flag(key)} name the same file: {path}")
    code = _command(name)(p)
    if manifest:  # after the command: `train` resolves its parameters as it runs
        from .commands import write_manifest

        write_manifest(manifest, name, spec, p)
    return code


def main(argv=None) -> int:
    ns = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        return _run(ns.subcommand, _resolve(ns, SUBCOMMANDS[ns.subcommand].defaults))
    except CorrSpaceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


def replay_manifest(manifest_path) -> int:
    """Rerun a recorded run; binary outputs must come out bit-identical. The
    recorded params get the checks a --config file's values get. Raises
    MissingArtifact for a missing manifest or input, or an input whose hash
    changed; CorruptArtifact for a manifest of the wrong shape; UsageError
    for a param its flag refuses; and the command's own errors."""
    from .commands import file_sha256
    from .files import read_json

    doc = read_json(manifest_path, "manifest", CorruptArtifact)
    if not (
        isinstance(doc, dict) and doc.get("subcommand") in tuple(SUBCOMMANDS)  # a tuple: a list or dict is no key
        and isinstance(doc.get("params"), dict) and isinstance(doc.get("inputs"), dict)
        and all(isinstance(e, dict) and isinstance(e.get("path"), str) and isinstance(e.get("sha256"), str)
                for e in doc["inputs"].values())
    ):
        raise CorruptArtifact(
            f"manifest {manifest_path} is not an object of a known subcommand, params and inputs of path and sha256"
        )
    defaults = SUBCOMMANDS[doc["subcommand"]].defaults
    params = {**defaults, **_checked(doc["params"], f"manifest {manifest_path}", defaults)}
    for name, entry in doc["inputs"].items():
        if not os.path.isfile(entry["path"]):
            raise MissingArtifact(f"input {name} of manifest {manifest_path} not found: {entry['path']}")
        if file_sha256(entry["path"]) != entry["sha256"]:
            raise MissingArtifact(f"input {name} changed since manifest: {entry['path']}")
    return _run(doc["subcommand"], params)


def run():
    """The `corrspace` command: `main` on the process's arguments, then exit
    with its code. Every object alive by then lives until the end, so
    `gc.freeze` spares the exit's garbage collection a walk over them all
    (numpy's among them); stdio is flushed and atexit handlers run as usual."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
