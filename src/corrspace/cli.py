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

import numpy as np

from . import __version__
from .core import normalize_rows
from .datasets import Dataset, SplitDataset, gen_example1, gen_example2, load_csv, save_csv, split
from .embed import DftTruncationEmbedder, DownSampleEmbedder, LearnedEmbedder, load_model, save_model
from .errors import CorrSpaceError, CorruptArtifact, LengthMismatch, MissingArtifact, UsageError
from .evaluation import METHODS, EvalReport, SweepConfig, latency_benchmark, sweep
from .index import KdTree, load_index, rank, save_index, threshold_radius_sq
from .train import APPROXIMATE, ORDER, TrainConfig, desk_config, train


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _hash_files(paths: dict) -> dict:
    return {name: {"path": str(p), "sha256": _sha256(p)} for name, p in paths.items() if p}


def _write_manifest(path, subcommand, params, inputs, outputs):
    doc = {
        "tool": "corrspace",
        "version": __version__,
        "subcommand": subcommand,
        "params": params,
        "inputs": _hash_files(inputs),
        "outputs": _hash_files(outputs),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


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
        raise UsageError(f"{source}: {key} = {json.dumps(value)} is not a valid --{key.replace('_', '-')}")
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


def _get_split(ds, params):
    if params.get("split"):
        return _load_split(params["split"])
    return split(ds, _parse_ratios(params["ratios"]), params["seed"])


def _embedder_for(method, m, model_path):
    if method == "dft":
        return DftTruncationEmbedder(m)
    if method == "downsample":
        return DownSampleEmbedder(m)
    if method in ("learned-approx", "learned-order"):
        if not model_path:
            raise MissingArtifact(f"method {method} requires --model")
        return LearnedEmbedder(load_model(model_path))
    raise UsageError(f"unknown method {method!r}")


def _manifest_path(params, *fallback_outputs):
    if params.get("manifest"):
        return params["manifest"]
    for out in fallback_outputs:
        if out:
            return str(out) + ".manifest.json"
    return None


# ---------------------------------------------------------------- subcommands

GEN_DEFAULTS = {
    "family": None, "n": 2000, "length": 128, "m": 8, "eps": 0.01, "seed": 0,
    "output": None, "manifest": None,
}


def cmd_gen(p):
    if p["family"] not in ("example1", "example2"):
        raise UsageError("--family must be example1 or example2")
    if not p["output"]:
        raise UsageError("--output is required")
    _require_output_dirs(p["output"], _manifest_path(p, p["output"]))
    if p["family"] == "example1":
        ds = gen_example1(p["n"], p["length"], p["seed"])
    else:
        ds = gen_example2(p["n"], p["length"], p["m"], p["eps"], p["seed"])
    save_csv(ds, p["output"])
    _write_manifest(_manifest_path(p, p["output"]), "gen", p, {}, {"data": p["output"]})
    print(f"generated {ds.n} series of length {ds.length} -> {p['output']}")
    return 0


INGEST_DEFAULTS = {"input": None, "format": "csv", "output": None, "manifest": None}


def cmd_ingest(p):
    if not p["input"] or not p["output"]:
        raise UsageError("--input and --output are required")
    _require_output_dirs(p["output"], _manifest_path(p, p["output"]))
    ds = load_csv(p["input"], p["format"])
    save_csv(ds, p["output"])
    _write_manifest(_manifest_path(p, p["output"]), "ingest", p, {"raw": p["input"]}, {"data": p["output"]})
    dropped = f" ({ds.n_constant_dropped} constant rows dropped)" if ds.n_constant_dropped else ""
    print(f"ingested {ds.n} series of length {ds.length}{dropped} -> {p['output']}")
    return 0


SPLIT_DEFAULTS = {
    "data": None, "format": "csv_id", "ratios": "0.8,0.1,0.1", "seed": 0,
    "output": None, "manifest": None,
}


def cmd_split(p):
    if not p["data"] or not p["output"]:
        raise UsageError("--data and --output are required")
    ratios = _parse_ratios(p["ratios"])
    _require_output_dirs(p["output"], _manifest_path(p, p["output"]))
    ds = load_csv(p["data"], p["format"])
    splits = split(ds, ratios, p["seed"])
    _save_split(splits, p["output"])
    _write_manifest(_manifest_path(p, p["output"]), "split", p, {"data": p["data"]}, {"split": p["output"]})
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
    if not p["data"] or not p["model_out"]:
        raise UsageError("--data and --model-out are required")
    if p["m"] is None:
        raise UsageError("--m is required")
    # the profile's values fill what no flag or config set, and the manifest records them
    given = {f.name: p[f.name] for f in dataclasses.fields(TrainConfig) if p.get(f.name) is not None}
    try:
        cfg = (desk_config if p["desk"] else TrainConfig)(loss_kind=p["loss"], **given)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    p.update({f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg) if f.name in p})
    if p["log_out"] is None:
        p["log_out"] = str(p["model_out"]) + ".log.csv"
    _require_output_dirs(p["model_out"], p["log_out"], _manifest_path(p, p["model_out"]))
    ds = load_csv(p["data"], p["format"])
    splits = _get_split(ds, p)
    params = train(ds, splits, cfg, log_path=p["log_out"])
    save_model(params, p["model_out"])
    inputs = {"data": p["data"], "split": p["split"]}
    outputs = {"model": p["model_out"], "log": p["log_out"]}
    _write_manifest(_manifest_path(p, p["model_out"]), "train", p, inputs, outputs)
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
    if not p["data"] or not p["output"]:
        raise UsageError("--data and --output are required")
    _require_output_dirs(p["output"], _manifest_path(p, p["output"]))
    ds = load_csv(p["data"], p["format"])
    if p["partition"] != "all":
        if not p["split"]:
            raise UsageError("--partition needs --split")
        splits = _load_split(p["split"])
        rows = ds.rows_for(getattr(splits, f"{p['partition']}_ids"))
    else:
        rows = slice(None)
    if p["method"] in ("dft", "downsample") and p["m"] is None:
        raise UsageError(f"method {p['method']} requires --m")
    embedder = _embedder_for(p["method"], p["m"], p["model"])
    tree = KdTree(embedder.embed_matrix(ds.normalized_matrix(rows)), ds.ids[rows])
    meta = {
        "method": p["method"],
        "m": int(embedder.m),
        "series_length": int(ds.length),
        "model": str(p["model"]) if p["model"] else None,
    }
    save_index(tree, p["output"], meta)
    inputs = {"data": p["data"], "split": p["split"], "model": p["model"]}
    _write_manifest(_manifest_path(p, p["output"]), "index", p, inputs, {"index": p["output"]})
    print(f"indexed {tree.n} series (method={p['method']}, m={embedder.m}) -> {p['output']}")
    return 0


QUERY_DEFAULTS = {
    "index": None, "model": None, "data": None, "format": "csv_id",
    "query_id": None, "query_file": None, "k": 10, "threshold": None, "slack": 1.0,
    "exact": False,
}


def cmd_query(p):
    if (p["query_id"] is None) == (p["query_file"] is None):
        raise UsageError("exactly one of --query-id / --query-file is required")
    if p["k"] < 1:
        raise UsageError(f"--k must be at least 1, got {p['k']}")
    if p["threshold"] is not None and not -1.0 <= p["threshold"] <= 1.0:
        raise UsageError(f"--threshold must be a correlation in [-1, 1], got {p['threshold']}")
    if not p["slack"] > 0:
        raise UsageError(f"--slack must be positive, got {p['slack']}")
    if p["exact"]:
        return _query_exact(p)
    return _query_index(p)


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


def _require_output_dirs(*paths):
    """MissingArtifact for an output path whose directory does not exist,
    checked before any input is read."""
    for path in paths:
        if path and not os.path.isdir(os.path.dirname(str(path)) or "."):
            raise MissingArtifact(f"output directory not found: {path}")


def _print_hits(ids, d2, corr):
    print("id dist2 corr_est")
    for i, d, c in zip(ids, d2, corr):
        print(f"{int(i)} {d:.9g} {c:.9g}")


def _query_exact(p):
    if not p["data"]:
        raise UsageError("--exact requires --data")
    ds = load_csv(p["data"], p["format"])
    h = ds.normalized_matrix()
    for label, q, self_id in _query_series(p, ds):
        corr = h @ q
        clipped = np.clip(corr, -1.0, 1.0)  # printed; ranked by the unclipped d², as `eval` ranks
        cand = np.arange(ds.n) if self_id is None else np.flatnonzero(ds.ids != self_id)
        k = p["k"]
        if p["threshold"] is not None:
            cand, k = cand[clipped[cand] >= p["threshold"]], None
        cand = cand[rank(2.0 - 2.0 * corr[cand], ds.ids[cand], k)]
        print(f"# query {label} (exact)")
        _print_hits(ds.ids[cand], 2.0 - 2.0 * clipped[cand], clipped[cand])
    return 0


def _query_index(p):
    """Answer from the index. An id the index holds is queried at its stored
    point, so neither --data is read nor the query embedded; other queries
    are series, normalized and embedded one row per call."""
    if not p["index"]:
        raise UsageError("--index is required (or pass --exact)")
    tree, meta = load_index(p["index"])
    if not {"method", "m"} <= meta.keys():
        raise CorruptArtifact(f"{p['index']}: index metadata lacks method or m")
    model_path = p["model"] or meta.get("model")
    embedder = _embedder_for(meta["method"], meta.get("m"), model_path)  # loaded even when unused: its errors show
    stored = tree.point(p["query_id"]) if p["query_id"] is not None else None
    if p["query_id"] is not None and stored is None:
        if not p["data"]:
            raise UsageError(f"the index does not hold id {p['query_id']}: pass --data to embed its series")
    elif p["data"] and not os.path.isfile(p["data"]):  # not read, but naming no file is still an error
        raise MissingArtifact(f"data file not found: {p['data']}")
    if stored is not None:
        queries = [(f"id {p['query_id']}", stored, int(p["query_id"]))]
    else:
        queries = _embedded_queries(p, embedder, meta.get("series_length"))
    for label, q, self_id in queries:
        if p["threshold"] is not None:
            res = tree.within_radius(q, threshold_radius_sq(p["threshold"], p["slack"]))
            ids, d2 = res.ids, res.distances_sq
        else:
            res = tree.top_k(q, min(p["k"] + (self_id is not None), tree.n))
            ids, d2 = res.ids, res.distances_sq
        if self_id is not None:
            keep = ids != self_id
            ids, d2 = ids[keep], d2[keep]
        if p["threshold"] is None:
            ids, d2 = ids[: p["k"]], d2[: p["k"]]
        print(f"# query {label} (method={meta['method']}, m={meta['m']})")
        _print_hits(ids, d2, np.clip(1.0 - d2, -1.0, 1.0))
    return 0


def _embedded_queries(p, embedder, length):
    """(label, embedded point, excluded id) of each query series, all checked
    against the index's series `length` before any is embedded."""
    ds = load_csv(p["data"], p["format"]) if p["query_id"] is not None else None
    queries = _query_series(p, ds)
    for label, q_values, _ in queries:
        if length is not None and len(q_values) != length:
            raise LengthMismatch(
                f"query {label} has length {len(q_values)}, the index holds series of length {length}"
            )
    # one row per call: a query's bits do not depend on the other rows of --query-file
    return [(label, embedder.embed_matrix(q_values[np.newaxis])[0], self_id) for label, q_values, self_id in queries]


EVAL_DEFAULTS = {
    "data": None, "format": "csv_id", "methods": None, "m_values": "8",
    "k_values": "10,100", "seed": 0, "ratios": "0.8,0.1,0.1", "desk": False,
    "max_queries": None, "timing": True, "report_out": None, "manifest": None,
}


def cmd_eval(p):
    if not p["data"] or not p["report_out"]:
        raise UsageError("--data and --report-out are required")
    if not p["methods"]:
        raise UsageError("--methods is required (comma-separated)")
    methods = _parse_str_list(p["methods"])
    for method in methods:
        if method not in METHODS:
            raise UsageError(f"unknown method {method!r} (choose from {', '.join(METHODS)})")
    m_values, k_values = _parse_int_list(p["m_values"]), _parse_int_list(p["k_values"])
    ratios = _parse_ratios(p["ratios"])
    try:
        cfg = SweepConfig(
            seed=p["seed"], ratios=ratios, profile="desk" if p["desk"] else "full",
            max_queries=p["max_queries"], timing=bool(p["timing"]),
        )
    except ValueError as exc:  # --max-queries below 1
        raise UsageError(str(exc)) from None
    _require_output_dirs(p["report_out"], _manifest_path(p, p["report_out"]))
    ds = load_csv(p["data"], p["format"])
    report = sweep(ds, methods, m_values, k_values, cfg)
    report.save_csv(p["report_out"])
    _write_manifest(
        _manifest_path(p, p["report_out"]), "eval", p, {"data": p["data"]}, {"report": p["report_out"]}
    )
    print(report.table())
    print(f"report -> {p['report_out']}")
    return 0


BENCH_DEFAULTS = {
    "n": 10000, "m": 16, "k": 100, "queries": 200, "length": 128,
    "hidden_size": 128, "seed": 0, "model": None, "report_out": None, "manifest": None,
}


def cmd_bench(p):
    if p["manifest"] and not p["report_out"]:
        raise UsageError("--manifest needs --report-out: without a report bench writes no artifact")
    _require_output_dirs(p["report_out"], _manifest_path(p, p["report_out"]))
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
        _write_manifest(
            _manifest_path(p, p["report_out"]), "bench", p,
            {"model": p["model"]}, {"report": p["report_out"]},
        )
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
    "method": {"choices": [m for m in METHODS if m != "exact"]},
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

# name -> (parameter defaults, help); the command is `cmd_<name>`
SUBCOMMANDS = {
    "gen": (GEN_DEFAULTS, "generate a synthetic dataset"),
    "ingest": (INGEST_DEFAULTS, "validate and canonicalize a dataset"),
    "split": (SPLIT_DEFAULTS, "write a train/val/test id partition"),
    "train": (TRAIN_DEFAULTS, "train a learned embedder"),
    "index": (INDEX_DEFAULTS, "embed a dataset and build the k-d tree"),
    "query": (QUERY_DEFAULTS, "top-k or threshold search against an index"),
    "eval": (EVAL_DEFAULTS, "precision/gap/latency sweep over methods"),
    "bench": (BENCH_DEFAULTS, "query latency benchmark"),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="corrspace",
        description="Correlation-preserving time-series embeddings with exact k-d tree search.",
    )
    ap.add_argument("--version", action="version", version=f"corrspace {__version__}")
    sub = ap.add_subparsers(dest="subcommand", required=True)
    for name, (defaults, help_line) in SUBCOMMANDS.items():
        sp = sub.add_parser(name, help=help_line)
        for key in ("config", *defaults):
            sp.add_argument("--" + key.replace("_", "-"), **FLAGS[key])
    return ap


def _command(name):
    # looked up when it runs, not bound at import: a wrapper installed on
    # the module later (perfbench's tracer) must see the call
    return globals()[f"cmd_{name}"]


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        return _command(ns.subcommand)(_resolve(ns, SUBCOMMANDS[ns.subcommand][0]))
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
    defaults = SUBCOMMANDS[doc["subcommand"]][0]
    params = {**defaults, **_checked(doc["params"], f"manifest {manifest_path}", defaults)}
    if check_inputs:
        for name, entry in doc["inputs"].items():
            if not os.path.isfile(entry["path"]):
                raise MissingArtifact(f"input {name} of manifest {manifest_path} not found: {entry['path']}")
            if _sha256(entry["path"]) != entry["sha256"]:
                raise MissingArtifact(f"input {name} changed since manifest: {entry['path']}")
    return _command(doc["subcommand"])(params)


if __name__ == "__main__":
    sys.exit(main())
