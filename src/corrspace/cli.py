"""Command-line front end: gen/ingest/split/train/index/query/eval/bench.

Config precedence is flags > --config JSON file > built-in defaults (the
full-scale training profile). Every run that writes an artifact writes a
manifest JSON recording the subcommand, fully resolved parameters and
SHA-256 hashes of inputs/outputs; `replay_manifest` reruns a manifest and
must reproduce binary artifacts bit-identically.
"""

import argparse
import dataclasses
import hashlib
import json
import os
import sys
from typing import NamedTuple

import numpy as np

from . import __version__
from .core import normalize_rows
from .datasets import Dataset, SplitDataset, gen_example1, gen_example2, load_csv, save_csv, split
from .embed import LearnedEmbedder, load_model, save_model
from .errors import CorrSpaceError, CorruptArtifact, LengthMismatch, MissingArtifact, UsageError
from .evaluation import FIXED_EMBEDDERS, LOSS_OF, METHODS, EvalReport, SweepConfig, latency_benchmark, sweep
from .index import KdTree, load_index, rank, save_index, threshold_radius_sq
from .train import APPROXIMATE, ORDER, TrainConfig, desk_config, train


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _hash_files(params, artifacts: dict) -> dict:
    paths = {name: params[key] for name, key in artifacts.items() if params[key]}
    return {name: {"path": str(path), "sha256": _sha256(path)} for name, path in paths.items()}


def _write_manifest(path, subcommand, params):
    spec = SUBCOMMANDS[subcommand]
    doc = {
        "tool": "corrspace",
        "version": __version__,
        "subcommand": subcommand,
        "params": params,
        "inputs": _hash_files(params, spec.inputs),
        "outputs": _hash_files(params, spec.outputs),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _flag(key):
    return "--" + key.replace("_", "-")


def _resolve(ns, defaults: dict) -> dict:
    """flags > config file > defaults, for every key in `defaults`."""
    from_file = {}
    if getattr(ns, "config", None):
        from_file = _checked(_read_json(ns.config, "config file", UsageError), f"config file {ns.config}", defaults)
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
    flag = FLAGS[key]
    kind = bool if flag.get("action") is argparse.BooleanOptionalAction else flag.get("type")
    try:
        typed = kind(value) if kind else value
    except (TypeError, ValueError, OverflowError):
        typed = None  # unequal to every value: nulls were dropped
    untyped_ok = kind or isinstance(value, str) or key in _LIST_KEYS and isinstance(value, list)
    if (
        typed != value or not untyped_ok or (kind is bool) != isinstance(value, bool)
        or flag.get("choices") and typed not in flag["choices"]
    ):
        raise UsageError(f"{source}: {key} = {json.dumps(value)} is not a valid {_flag(key)}")
    return typed


def _parse_items(value, convert):
    """The items of a comma-separated string or a JSON list, each through
    `convert`; UsageError for an item it does not take."""
    items = value.split(",") if isinstance(value, str) else value
    try:
        return [convert(x) for x in items]
    except (TypeError, ValueError, OverflowError):
        raise UsageError(f"cannot read {json.dumps(value)} as a list of {convert.__name__} values") from None


def _number(x):
    if isinstance(x, bool):
        raise TypeError("a bool is no number")
    return float(x)


def _integer(x):
    if not isinstance(x, str) and type(x) is not int:  # "4" and 4, not 4.5 or true
        raise TypeError("not an integer")
    return int(x)


def _parse_ratios(value):
    parts = _parse_items(value, _number)
    if len(parts) != 3 or not (min(parts) >= 0 and abs(sum(parts) - 1.0) <= 1e-9):  # NaN fails too
        raise UsageError("ratios must be three comma-separated nonnegative numbers summing to 1")
    return tuple(parts)


def _parse_int_list(value):
    out = _parse_items(value, _integer)
    if not out:
        raise UsageError("expected a non-empty comma-separated list")
    return out


def _parse_str_list(value):
    items = [s.strip() for s in value.split(",")] if isinstance(value, str) else list(value)
    items = [s for s in items if s]
    if not items:
        raise UsageError("expected a non-empty comma-separated list")
    return items


def _save_split(splits: SplitDataset, path):
    doc = {
        "seed": int(splits.seed),
        "ratios": list(splits.ratios),
        "train_ids": splits.train_ids.tolist(),
        "val_ids": splits.val_ids.tolist(),
        "test_ids": splits.test_ids.tolist(),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def _read_json(path, what, error):
    """The JSON document at `path`; `error` (a CorrSpaceError class) when it is not JSON."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (FileNotFoundError, IsADirectoryError):
        raise MissingArtifact(f"{what} not found: {path}")
    except (ValueError, RecursionError) as exc:  # among them JSONDecodeError and UnicodeDecodeError
        raise error(f"{what} {path} is not JSON: {exc}") from None


def _is_int(value):
    return type(value) is int  # not a bool, float or string


def _load_split(path) -> SplitDataset:
    doc = _read_json(path, "split file", CorruptArtifact)
    keys = ("train_ids", "val_ids", "test_ids")
    if not (
        isinstance(doc, dict)
        and {"seed", "ratios", *keys} <= doc.keys()
        and _is_int(doc["seed"])
        and isinstance(doc["ratios"], list)
        and all(isinstance(doc[key], list) and all(map(_is_int, doc[key])) for key in keys)
    ):
        raise CorruptArtifact(
            f"split file {path} is not an object of seed, ratios and the integer lists {', '.join(keys)}"
        )
    try:
        return SplitDataset(
            *(np.array(doc[key], dtype=np.int64) for key in keys), seed=doc["seed"], ratios=tuple(doc["ratios"])
        )
    except (OverflowError, ValueError) as exc:  # an id outside int64, or partitions that overlap
        raise CorruptArtifact(f"split file {path}: {exc}") from None


# the methods an index is built with
_EMBEDDER_METHODS = (*FIXED_EMBEDDERS, *LOSS_OF)


def _embedder_for(method, m, model_path, model_sha256=None):
    """The embedder of `method`, one of `_EMBEDDER_METHODS`. A learned one
    loads `model_path`, whose bytes must hash to `model_sha256` when it is
    given (`load_model`)."""
    if method in FIXED_EMBEDDERS:
        return FIXED_EMBEDDERS[method](m)
    if not model_path:
        raise MissingArtifact(f"method {method} requires --model")
    return LearnedEmbedder(load_model(model_path, model_sha256))


def _at_least(low, key, *values):
    """UsageError when a value of the flag `key` is below `low`."""
    if min(values) < low:
        raise UsageError(f"{_flag(key)} must be at least {low}, got {min(values)}")


# ---------------------------------------------------------------- subcommands

GEN_DEFAULTS = {
    "family": None, "n": 2000, "length": 128, "m": 8, "eps": 0.01, "seed": 0,
    "output": None, "manifest": None,
}


def cmd_gen(p):
    _at_least(1, "n", p["n"])
    _at_least(0, "seed", p["seed"])
    if not np.isfinite(p["eps"]):
        raise UsageError(f"--eps must be finite, got {p['eps']}")
    if p["family"] == "example1":
        ds = gen_example1(p["n"], p["length"], p["seed"])
    else:
        ds = gen_example2(p["n"], p["length"], p["m"], p["eps"], p["seed"])
    save_csv(ds, p["output"])
    print(f"generated {ds.n} series of length {ds.length} -> {p['output']}")
    return 0


INGEST_DEFAULTS = {"input": None, "format": "csv", "output": None, "manifest": None}


def cmd_ingest(p):
    ds = load_csv(p["input"], p["format"])
    save_csv(ds, p["output"])
    dropped = f" ({ds.n_constant_dropped} constant rows dropped)" if ds.n_constant_dropped else ""
    print(f"ingested {ds.n} series of length {ds.length}{dropped} -> {p['output']}")
    return 0


SPLIT_DEFAULTS = {
    "data": None, "format": "csv_id", "ratios": "0.8,0.1,0.1", "seed": 0,
    "output": None, "manifest": None,
}


def cmd_split(p):
    ratios = _parse_ratios(p["ratios"])
    _at_least(0, "seed", p["seed"])
    ds = load_csv(p["data"], p["format"])
    splits = split(ds, ratios, p["seed"])
    _save_split(splits, p["output"])
    print(
        f"split {ds.n} series -> {len(splits.train_ids)} train / "
        f"{len(splits.val_ids)} val / {len(splits.test_ids)} test"
    )
    return 0


TRAIN_DEFAULTS = {
    "data": None, "format": "csv_id", "split": None, "ratios": "0.8,0.1,0.1",
    "loss": APPROXIMATE, "m": None, "desk": False,
    "learning_rate": None, "batch_size": None, "iterations": None, "hidden_size": None,
    "seed": 0, "model_out": None, "log_out": None, "manifest": None,
}


def cmd_train(p):
    # the profile's values fill what no flag or config set, and the manifest records them
    given = {f.name: p[f.name] for f in dataclasses.fields(TrainConfig) if p.get(f.name) is not None}
    try:
        cfg = (desk_config if p["desk"] else TrainConfig)(loss_kind=p["loss"], **given)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    p.update({f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg) if f.name in p})
    if p["log_out"] is None:
        p["log_out"] = str(p["model_out"]) + ".log.csv"  # in --model-out's directory, which `_run` checked
    ds = load_csv(p["data"], p["format"])
    splits = _load_split(p["split"]) if p["split"] else split(ds, _parse_ratios(p["ratios"]), p["seed"])
    params = train(ds, splits, cfg, log_path=p["log_out"])
    save_model(params, p["model_out"])
    with open(p["log_out"]) as fh:
        lines = fh.read().strip().splitlines()
    first, last = lines[1].split(","), lines[-1].split(",")
    print(
        f"trained {p['loss']} m={p['m']}: train loss {float(first[1]):.4g} -> "
        f"{float(last[1]):.4g} over {last[0]} iterations ({float(last[3]) / 1e3:.1f} s)"
    )
    print(f"model -> {p['model_out']}")
    return 0


INDEX_DEFAULTS = {
    "data": None, "format": "csv_id", "split": None, "partition": "all",
    "method": "dft", "m": None, "model": None, "output": None, "manifest": None,
}


def cmd_index(p):
    ds = load_csv(p["data"], p["format"])
    if p["partition"] != "all":
        if not p["split"]:
            raise UsageError("--partition needs --split")
        splits = _load_split(p["split"])
        rows = ds.rows_for(getattr(splits, f"{p['partition']}_ids"))
    else:
        rows = slice(None)
    if p["method"] in FIXED_EMBEDDERS and p["m"] is None:
        raise UsageError(f"method {p['method']} requires --m")
    embedder = _embedder_for(p["method"], p["m"], p["model"])
    tree = KdTree(embedder.embed_matrix(ds.normalized_matrix(rows)), ds.ids[rows])
    meta = {
        "method": p["method"],
        "m": int(embedder.m),
        "series_length": int(ds.length),
        "model": str(p["model"]) if p["model"] else None,
    }
    if isinstance(embedder, LearnedEmbedder):
        meta["model_sha256"] = _sha256(p["model"])  # `query` answers only with a model of these bytes
    save_index(tree, p["output"], meta)
    print(f"indexed {tree.n} series (method={p['method']}, m={embedder.m}) -> {p['output']}")
    return 0


QUERY_DEFAULTS = {
    "index": None, "model": None, "data": None, "format": "csv_id",
    "query_id": None, "query_file": None, "k": 10, "threshold": None, "slack": 1.0,
    "exact": False,
}


def cmd_query(p):
    """Answer from the index or, with --exact, from every series of --data.
    Each mode sets up `search(q, k)`: the ids, d² and correlations to print
    of the k nearest to `q`, or of every --threshold hit when k is None. An
    id the index holds is queried at its stored point: --data is not read."""
    if (p["query_id"] is None) == (p["query_file"] is None):
        raise UsageError("exactly one of --query-id / --query-file is required")
    _at_least(1, "k", p["k"])
    if p["threshold"] is not None and not -1.0 <= p["threshold"] <= 1.0:
        raise UsageError(f"--threshold must be a correlation in [-1, 1], got {p['threshold']}")
    if not p["slack"] > 0:
        raise UsageError(f"--slack must be positive, got {p['slack']}")
    ds = embedder = held = None
    if p["exact"]:
        if not p["data"]:
            raise UsageError("--exact requires --data")
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
        tree, meta = load_index(p["index"])
        length = meta.get("series_length")
        if not (
            meta.get("method") in _EMBEDDER_METHODS and _is_int(meta.get("m")) and meta["m"] == tree.m
            and (length is None or _is_int(length) and length > 0)
        ):
            raise CorruptArtifact(
                f"{p['index']}: index metadata lacks method or m, or does not fit its points of width {tree.m}: "
                f"method {meta.get('method')!r}, m {meta.get('m')!r}, series_length {length!r}"
            )
        # loaded even when unused: its errors show, a model that did not build the index among them
        embedder = _embedder_for(meta["method"], meta["m"], p["model"] or meta.get("model"), meta.get("model_sha256"))

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
            ds = load_csv(p["data"], p["format"])
        elif p["data"] and not os.path.isfile(p["data"]):  # not read, but naming no file is still an error
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
    qds = load_csv(p["query_file"], "csv")
    # one call for all rows: `normalize_rows` gives each row the bits it has alone
    values = normalize_rows(qds.values, qds.ids)
    # labelled by data row: dropped constant rows keep their numbers
    return [(f"{p['query_file']}[{rid}]", row, None) for rid, row in zip(qds.ids, values)]


EVAL_DEFAULTS = {
    "data": None, "format": "csv_id", "methods": None, "m_values": "8",
    "k_values": "10,100", "seed": 0, "ratios": "0.8,0.1,0.1", "desk": False,
    "max_queries": None, "timing": True, "report_out": None, "manifest": None,
}


def cmd_eval(p):
    methods = _parse_str_list(p["methods"])
    for method in methods:
        if method not in METHODS:
            raise UsageError(f"unknown method {method!r} (choose from {', '.join(METHODS)})")
    m_values, k_values = _parse_int_list(p["m_values"]), _parse_int_list(p["k_values"])
    _at_least(1, "k_values", *k_values)
    if LOSS_OF.keys() & set(methods):  # a fixed embedder reports its own m range (InvalidM)
        _at_least(1, "m_values", *m_values)
    ratios = _parse_ratios(p["ratios"])
    _at_least(0, "seed", p["seed"])
    try:
        cfg = SweepConfig(
            seed=p["seed"], ratios=ratios, profile="desk" if p["desk"] else "full",
            max_queries=p["max_queries"], timing=bool(p["timing"]),
        )
    except ValueError as exc:  # --max-queries below 1
        raise UsageError(str(exc)) from None
    ds = load_csv(p["data"], p["format"])
    report = sweep(ds, methods, m_values, k_values, cfg)
    report.save_csv(p["report_out"])
    print(report.table())
    print(f"report -> {p['report_out']}")
    return 0


BENCH_DEFAULTS = {
    "n": 10000, "m": 16, "k": 100, "queries": 200, "length": 128,
    "hidden_size": 128, "seed": 0, "model": None, "report_out": None, "manifest": None,
}


def cmd_bench(p):
    for key in ("n", "m", "k", "queries", "hidden_size"):
        _at_least(1, key, p[key])
    _at_least(2, "length", p["length"])  # a one-point series is constant
    _at_least(0, "seed", p["seed"])
    params = load_model(p["model"]) if p["model"] else None
    stats = latency_benchmark(
        p["n"], p["m"], p["k"], n_queries=p["queries"], seed=p["seed"],
        series_length=p["length"], hidden_size=p["hidden_size"], params=params,
    )
    for key in ("q50_us", "q99_us", "embed_q50_us", "traverse_q50_us", "scanned_q50", "refined_q50", "build_ms"):
        print(f"{key} = {stats[key]:.1f}")
    if p["report_out"]:
        with open(p["report_out"], "w") as fh:
            json.dump(stats, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


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


SUBCOMMANDS = {
    "gen": Subcommand(GEN_DEFAULTS, "generate a synthetic dataset", ("family", "output"), {}, {"data": "output"}),
    "ingest": Subcommand(INGEST_DEFAULTS, "validate and canonicalize a dataset", ("input", "output"),
                         {"raw": "input"}, {"data": "output"}),
    "split": Subcommand(SPLIT_DEFAULTS, "write a train/val/test id partition", ("data", "output"),
                        {"data": "data"}, {"split": "output"}),
    "train": Subcommand(TRAIN_DEFAULTS, "train a learned embedder", ("data", "model_out", "m"),
                        {"data": "data", "split": "split"}, {"model": "model_out", "log": "log_out"}),
    "index": Subcommand(INDEX_DEFAULTS, "embed a dataset and build the k-d tree", ("data", "output"),
                        {"data": "data", "split": "split", "model": "model"}, {"index": "output"}),
    "query": Subcommand(QUERY_DEFAULTS, "top-k or threshold search against an index"),
    "eval": Subcommand(EVAL_DEFAULTS, "precision/gap/latency sweep over methods",
                       ("data", "report_out", "methods"), {"data": "data"}, {"report": "report_out"}),
    "bench": Subcommand(BENCH_DEFAULTS, "query latency benchmark", (), {"model": "model"}, {"report": "report_out"}),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="corrspace",
        description="Correlation-preserving time-series embeddings with exact k-d tree search.",
    )
    ap.add_argument("--version", action="version", version=f"corrspace {__version__}")
    sub = ap.add_subparsers(dest="subcommand", required=True)
    for name, spec in SUBCOMMANDS.items():
        sp = sub.add_parser(name, help=spec.help)
        for key in ("config", *spec.defaults):
            sp.add_argument(_flag(key), **FLAGS[key])
    return ap


def _command(name):
    # looked up when it runs, not bound at import: a wrapper installed on
    # the module later (perfbench's tracer) must see the call
    return globals()[f"cmd_{name}"]


def _run(name, p) -> int:
    """Run `cmd_<name>` on the resolved parameters `p` after refusing an unset or
    empty required parameter, a --manifest with no output, and an output that is
    a directory or in a missing one; write the manifest at --manifest or beside the first output."""
    spec = SUBCOMMANDS[name]
    missing = [_flag(key) for key in spec.required if p[key] is None or p[key] == ""]
    if missing:
        raise UsageError(f"{' and '.join(missing)} {'is' if len(missing) == 1 else 'are'} required")
    outputs = [p[key] for key in spec.outputs.values() if p[key]]
    if p.get("manifest") and not outputs:
        flags, artifacts = " or ".join(map(_flag, spec.outputs.values())), " or ".join(spec.outputs)
        raise UsageError(f"--manifest needs {flags}: without a {artifacts} {name} writes no artifact")
    manifest = p.get("manifest") or (f"{outputs[0]}.manifest.json" if outputs else None)
    for path in (*outputs, manifest):
        if path and not os.path.isdir(os.path.dirname(str(path)) or "."):
            raise MissingArtifact(f"output directory not found: {path}")
        if path and os.path.isdir(path):
            raise MissingArtifact(f"output file not found: {path} is a directory")
    code = _command(name)(p)
    if manifest:  # after the command: `train` resolves its parameters as it runs
        _write_manifest(manifest, name, p)
    return code


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        return _run(ns.subcommand, _resolve(ns, SUBCOMMANDS[ns.subcommand].defaults))
    except CorrSpaceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


def replay_manifest(manifest_path, check_inputs=True) -> int:
    """Rerun a recorded run; binary outputs must come out bit-identical. The
    recorded params get the checks a --config file's values get. Raises
    MissingArtifact for a missing manifest or input, or an input whose hash
    changed; CorruptArtifact for a manifest of the wrong shape; UsageError
    for a param its flag refuses; and the command's own errors."""
    doc = _read_json(manifest_path, "manifest", CorruptArtifact)
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
    if check_inputs:
        for name, entry in doc["inputs"].items():
            if not os.path.isfile(entry["path"]):
                raise MissingArtifact(f"input {name} of manifest {manifest_path} not found: {entry['path']}")
            if _sha256(entry["path"]) != entry["sha256"]:
                raise MissingArtifact(f"input {name} changed since manifest: {entry['path']}")
    return _run(doc["subcommand"], params)


if __name__ == "__main__":
    sys.exit(main())
