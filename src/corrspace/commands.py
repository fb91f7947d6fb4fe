"""The subcommands other than `query`: gen, ingest, split, train, index, eval
and bench, and the manifest each run writes.

`cli` holds their flags and defaults (`cli.SUBCOMMANDS`) and imports this
module only when one of them runs, or a manifest is written or replayed, so
a query compiles none of it. This module does not import `cli`: under
`python -m corrspace.cli` that module is `__main__`, and importing
`corrspace.cli` would compile and run a second copy of it.
"""

import dataclasses
import json
import os

import numpy as np

from . import __version__
from .datasets import SplitDataset, gen_example1, gen_example2, load_csv, ratios_ok, save_csv, split
from .embed import LOSS_OF, METHODS, U32, embedder_for, load_model, save_model
from .errors import CorruptArtifact, UsageError, check_range, is_int
from .files import read_json, write_json
from .index import KdTree, save_index

# `train` and `evaluation` are imported by the commands that use them: `ingest`
# and `index` load neither.


def file_sha256(path):
    """The hex sha256 of the file at `path`."""
    import hashlib  # imported on first use: `index` hashes after its peak, so OpenSSL's memory stays out of that peak

    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _hash_files(params, artifacts: dict) -> dict:
    paths = {name: params[key] for name, key in artifacts.items() if params[key]}
    return {name: {"path": str(path), "sha256": file_sha256(path)} for name, path in paths.items()}


def write_manifest(path, subcommand, spec, params):
    """The manifest of a run of `subcommand`, whose `cli.Subcommand` is `spec`, on `params`."""
    doc = {
        "tool": "corrspace",
        "version": __version__,
        "subcommand": subcommand,
        "params": params,
        "inputs": _hash_files(params, spec.inputs),
        "outputs": _hash_files(params, spec.outputs),
    }
    write_json(path, doc, indent=2, sort_keys=True)


def _number(x):
    if isinstance(x, bool):
        raise TypeError("a bool is no number")
    return float(x)


def _integer(x):
    if not isinstance(x, str) and type(x) is not int:  # "4" and 4, not 4.5 or true
        raise TypeError("not an integer")
    return int(x)


# the item reader of each kind of list a flag takes
_ITEM_OF = {"numbers": _number, "integers": _integer}


def _parse_items(value, kind):
    """The items of a comma-separated string or a JSON list, each read as one
    of `kind`; UsageError, naming the kind, for an item that is not."""
    items = value.split(",") if isinstance(value, str) else value
    try:
        return [_ITEM_OF[kind](x) for x in items]
    except (TypeError, ValueError, OverflowError):
        raise UsageError(f"cannot read {json.dumps(value)} as a list of {kind}") from None


def _parse_ratios(value):
    parts = _parse_items(value, "numbers")
    if not ratios_ok(parts):
        raise UsageError("ratios must be three comma-separated nonnegative numbers summing to 1")
    return tuple(parts)


def _parse_int_list(value):
    out = _parse_items(value, "integers")
    if not out:
        raise UsageError("expected a non-empty comma-separated list")
    return out


def _parse_str_list(value):
    items = [s.strip() for s in value.split(",")] if isinstance(value, str) else list(value)
    items = [s for s in items if s]
    if not items:
        raise UsageError("expected a non-empty comma-separated list")
    return items


def _save_split(splits, path):
    doc = {
        "seed": int(splits.seed),
        "ratios": list(splits.ratios),
        "train_ids": splits.train_ids.tolist(),
        "val_ids": splits.val_ids.tolist(),
        "test_ids": splits.test_ids.tolist(),
    }
    write_json(path, doc)


def _load_split(path):
    doc = read_json(path, "split file", CorruptArtifact)
    keys = ("train_ids", "val_ids", "test_ids")
    if not (
        isinstance(doc, dict)
        and {"seed", "ratios", *keys} <= doc.keys()
        and is_int(doc["seed"])
        and isinstance(doc["ratios"], list)
        and all(isinstance(doc[key], list) and all(map(is_int, doc[key])) for key in keys)
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


def cmd_gen(p):
    if not np.isfinite(p["eps"]):
        raise UsageError(f"--eps must be finite, got {p['eps']}")
    if p["family"] == "example1":
        ds = gen_example1(p["n"], p["length"], p["seed"])
    else:
        ds = gen_example2(p["n"], p["length"], p["m"], p["eps"], p["seed"])
    save_csv(ds, p["output"])
    print(f"generated {ds.n} series of length {ds.length} -> {p['output']}")
    return 0


def cmd_ingest(p):
    ds = load_csv(p["input"], p["format"])
    save_csv(ds, p["output"])
    dropped = f" ({ds.n_constant_dropped} constant rows dropped)" if ds.n_constant_dropped else ""
    print(f"ingested {ds.n} series of length {ds.length}{dropped} -> {p['output']}")
    return 0


def cmd_split(p):
    ratios = _parse_ratios(p["ratios"])
    ds = load_csv(p["data"], p["format"])
    splits = split(ds, ratios, p["seed"])
    _save_split(splits, p["output"])
    print(
        f"split {ds.n} series -> {len(splits.train_ids)} train / "
        f"{len(splits.val_ids)} val / {len(splits.test_ids)} test"
    )
    return 0


def cmd_train(p):
    from .train import TrainConfig, desk_config, train

    # the profile's values fill what no flag or config set, and the manifest records them
    given = {f.name: p[f.name] for f in dataclasses.fields(TrainConfig) if p.get(f.name) is not None}
    cfg = (desk_config if p["desk"] else TrainConfig)(loss_kind=p["loss"], **given)
    p.update({f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg) if f.name in p})
    if not p["log_out"]:  # unset or "", as an empty --manifest falls back to its default
        p["log_out"] = str(p["model_out"]) + ".log.csv"  # in --model-out's directory, which `_run` checked
    ratios = None if p["split"] else _parse_ratios(p["ratios"])  # read before the data, as every flag is
    ds = load_csv(p["data"], p["format"])
    splits = _load_split(p["split"]) if p["split"] else split(ds, ratios, p["seed"])
    params = train(ds, splits, cfg, log_path=p["log_out"])
    try:
        save_model(params, p["model_out"])
    except BaseException:  # a run that writes no model keeps no log of it
        if os.path.isfile(p["log_out"]):
            os.remove(p["log_out"])
        raise
    if os.path.isfile(p["log_out"]):  # the losses and time are read back from the log
        with open(p["log_out"]) as fh:
            lines = fh.read().strip().splitlines()
        first, last = lines[1].split(","), lines[-1].split(",")
        print(
            f"trained {p['loss']} m={p['m']}: train loss {float(first[1]):.4g} -> "
            f"{float(last[1]):.4g} over {last[0]} iterations ({float(last[3]) / 1e3:.1f} s)"
        )
    else:  # /dev/null or a pipe keeps nothing to read back
        print(f"trained {p['loss']} m={p['m']} over {cfg.iterations} iterations")
    print(f"model -> {p['model_out']}")
    return 0


def cmd_index(p):
    learned = p["method"] in LOSS_OF
    if not learned and p["m"] is None:
        raise UsageError(f"method {p['method']} requires --m")
    if p["partition"] != "all" and not p["split"]:
        raise UsageError("--partition needs --split")
    if learned and not p["model"]:
        raise UsageError(f"method {p['method']} requires --model")
    # an input that would go unread is refused: the manifest would hash it as one
    if p["model"] and not learned:
        raise UsageError(f"--model is not taken with method {p['method']}: it reads no model")
    if p["split"] and p["partition"] == "all":
        raise UsageError("--split is not taken with --partition all: it indexes every series of --data")
    model = load_model(p["model"]) if learned else None
    if learned and p["m"] not in (None, model.output_width):
        raise UsageError(f"--m {p['m']} is not the model's output width {model.output_width}")
    ds = load_csv(p["data"], p["format"])
    if p["partition"] != "all":
        splits = _load_split(p["split"])
        rows = ds.rows_for(getattr(splits, f"{p['partition']}_ids"))
    else:
        rows = slice(None)
    embedder = embedder_for(p["method"], p["m"], model)
    tree = KdTree(embedder.embed_matrix(ds.normalized_matrix(rows)), ds.ids[rows])
    meta = {
        "method": p["method"],
        "m": int(embedder.m),
        "series_length": int(ds.length),
        "model": str(p["model"]) if p["model"] else None,
    }
    if learned:  # the index holds the model (version 3), and records which file it came from
        meta["model_sha256"] = file_sha256(p["model"])
    save_index(tree, p["output"], meta, model)
    print(f"indexed {tree.n} series (method={p['method']}, m={embedder.m}) -> {p['output']}")
    return 0


def cmd_eval(p):
    from .evaluation import SweepConfig, sweep

    methods = _parse_str_list(p["methods"])
    for method in methods:
        if method not in METHODS:
            raise UsageError(f"unknown method {method!r} (choose from {', '.join(METHODS)})")
    m_values, k_values = _parse_int_list(p["m_values"]), _parse_int_list(p["k_values"])
    check_range("k_values", 1, None, *k_values)
    if LOSS_OF.keys() & set(methods):  # a fixed embedder reports its own m range (InvalidM)
        check_range("m_values", 1, U32, *m_values)
    ratios = _parse_ratios(p["ratios"])
    cfg = SweepConfig(
        seed=p["seed"], ratios=ratios, desk=p["desk"], max_queries=p["max_queries"], timing=bool(p["timing"])
    )
    ds = load_csv(p["data"], p["format"])
    report = sweep(ds, methods, m_values, k_values, cfg)
    report.save_csv(p["report_out"])
    print(report.table())
    print(f"report -> {p['report_out']}")
    return 0


def cmd_bench(p):
    from .evaluation import latency_benchmark

    params = load_model(p["model"]) if p["model"] else None
    stats = latency_benchmark(
        p["n"], p["m"], p["k"], n_queries=p["queries"], seed=p["seed"],
        series_length=p["length"], hidden_size=p["hidden_size"], params=params,
    )
    for key in ("q50_us", "q99_us", "embed_q50_us", "traverse_q50_us", "scanned_q50", "refined_q50", "build_ms"):
        print(f"{key} = {stats[key]:.1f}")
    if p["report_out"]:
        write_json(p["report_out"], stats, indent=2, sort_keys=True)
    return 0
