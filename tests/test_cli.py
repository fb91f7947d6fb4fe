"""Command-line interface: subcommand behavior, exit codes, manifests and
replay. Everything runs in-process through main(argv) for speed; a few
subprocess tests cover the entry point (`python -m corrspace.cli`, `run`).
"""

import argparse
import gc
import hashlib
import json
import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrspace import cli
from corrspace.cli import (
    FLAGS, GEN_DEFAULTS, SUBCOMMANDS, U32, U64, _parse, _resolve, build_parser, main,
    replay_manifest,
)
from corrspace.commands import _load_split
from corrspace.datasets import Dataset, load_csv, save_csv
from corrspace.core import normalize_rows
from corrspace.embed import DftTruncationEmbedder, LearnedEmbedder, NetworkParams, load_model, save_model
from corrspace.errors import CorrSpaceError, CorruptArtifact, MissingArtifact, Unreplayable, UsageError
from corrspace.errors import flag as _flag
from corrspace.index import load_index, save_index, threshold_radius_sq
from corrspace.train import desk_config, init_params
from oracles import by_correlation

ROOT = Path(__file__).resolve().parents[1]
HUGE = 10**30  # a size no array may take: numpy refuses it with a ValueError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gen_small(capsys, tmp_path, name="data.csv", family="example1", n=100, length=16, extra=()):
    path = tmp_path / name
    code, _, err = run(
        capsys, "gen", "--family", family, "--n", str(n), "--length", str(length),
        "--output", str(path), *extra,
    )
    assert code == 0, err
    return path


# ---------------------------------------------------------------------- gen

def test_gen_writes_data_and_manifest(capsys, tmp_path):
    path = gen_small(capsys, tmp_path)
    ds = load_csv(str(path), "csv_id")
    assert (ds.n, ds.length) == (100, 16)
    doc = json.loads((tmp_path / "data.csv.manifest.json").read_text())
    assert doc["subcommand"] == "gen"
    assert doc["params"]["n"] == 100
    assert doc["outputs"]["data"]["path"] == str(path)


def test_gen_deterministic(capsys, tmp_path):
    a = gen_small(capsys, tmp_path, "a.csv")
    b = gen_small(capsys, tmp_path, "b.csv")
    assert a.read_bytes() == b.read_bytes()


def test_gen_example2_family(capsys, tmp_path):
    path = gen_small(capsys, tmp_path, family="example2", extra=("--m", "4", "--eps", "0.01"))
    assert load_csv(str(path), "csv_id").n == 100


def test_gen_usage_errors(capsys, tmp_path):
    code, _, err = run(capsys, "gen", "--family", "example1")  # no --output
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "gen", "--output", str(tmp_path / "x.csv"))  # no family
    assert code == 2


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_package_version_is_the_project_version():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    import corrspace

    with open(ROOT / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == corrspace.__version__


# ------------------------------------------------------------------- ingest

def test_ingest_canonicalizes_and_reports_drops(capsys, tmp_path):
    raw = tmp_path / "raw.csv"
    rng = np.random.default_rng(0)
    rows = [rng.standard_normal(8), np.full(8, 3.0), rng.standard_normal(8)]
    raw.write_text("\n".join(",".join(f"{v}" for v in row) for row in rows) + "\n")
    out = tmp_path / "clean.csv"
    code, stdout, _ = run(capsys, "ingest", "--input", str(raw), "--format", "csv", "--output", str(out))
    assert code == 0
    assert "1 constant rows dropped" in stdout
    ds = load_csv(str(out), "csv_id")
    assert ds.n == 2 and list(ds.ids) == [0, 2]


def test_ingest_of_an_ingest_output_is_byte_identical(capsys, tmp_path):
    raw = tmp_path / "raw.csv"
    values = np.random.default_rng(5).standard_normal((20, 8)) * 10.0 ** np.arange(-200, 200, 20)[:, None]
    raw.write_text("".join(",".join(f"{v:.{1 + i % 17}g}" for v in row) + "\n" for i, row in enumerate(values)))
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    code, _, err = run(capsys, "ingest", "--input", str(raw), "--format", "csv", "--output", str(first))
    assert code == 0, err
    code, _, err = run(capsys, "ingest", "--input", str(first), "--format", "csv_id", "--output", str(second))
    assert code == 0, err
    assert second.read_bytes() == first.read_bytes()


def test_ingest_ragged_file_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2,3,4,5\n1,2,3\n")
    code, _, err = run(capsys, "ingest", "--input", str(bad), "--format", "csv", "--output", str(tmp_path / "x.csv"))
    assert code == 17
    assert "line 2" in err


def test_ingest_non_finite_value_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2,3,4\n1,-Inf,3,4\n")
    code, _, err = run(capsys, "ingest", "--input", str(bad), "--format", "csv", "--output", str(tmp_path / "x.csv"))
    assert code == 16
    assert "line 2" in err


def test_ingest_missing_file_exit_code(capsys, tmp_path):
    code, _, err = run(capsys, "ingest", "--input", str(tmp_path / "nope.csv"), "--output", str(tmp_path / "x.csv"))
    assert code == 23 and "data file not found" in err


# -------------------------------------------------------------------- split

def test_split_writes_partition(capsys, tmp_path):
    data = gen_small(capsys, tmp_path)
    out = tmp_path / "split.json"
    code, stdout, _ = run(capsys, "split", "--data", str(data), "--output", str(out))
    assert code == 0 and "80 train / 10 val / 10 test" in stdout
    doc = json.loads(out.read_text())
    assert len(doc["train_ids"]) == 80
    assert len(doc["val_ids"]) == len(doc["test_ids"]) == 10
    assert not set(doc["train_ids"]) & set(doc["test_ids"])


def test_split_of_another_file_is_a_missing_id(capsys, tmp_path):
    data = gen_small(capsys, tmp_path, n=100)
    other = gen_small(capsys, tmp_path, "other.csv", n=400)
    split_path = tmp_path / "other.split.json"
    run(capsys, "split", "--data", str(other), "--output", str(split_path))
    missing = next(i for i in json.loads(split_path.read_text())["test_ids"] if i >= 100)
    code, _, err = run(
        capsys, "index", "--data", str(data), "--method", "dft", "--m", "4", "--split", str(split_path),
        "--partition", "test", "--output", str(tmp_path / "x.idx"),
    )
    assert code == 23 and f"id {missing} not in" in err
    code, _, err = run(
        capsys, "train", "--data", str(data), "--split", str(split_path), "--m", "4", "--desk",
        "--iterations", "10", "--model-out", str(tmp_path / "x.bin"),
    )
    assert code == 23 and "not in" in err


@pytest.mark.parametrize("text", [
    "not json {",
    "\xff\xfe",
    "7",
    '{"seed": 0, "ratios": [0.8, 0.1, 0.1], "train_ids": [0, 1], "test_ids": [2]}',
    '{"seed": 0, "ratios": [0.8, 0.1, 0.1], "train_ids": [0, 1], "val_ids": [1], "test_ids": [2]}',
    '{"seed": 0, "ratios": [0.8, 0.1, 0.1], "train_ids": [0, "1"], "val_ids": [], "test_ids": [2]}',
    '{"seed": 0, "ratios": [0.8, 0.1, 0.1], "train_ids": [0, 1e400], "val_ids": [], "test_ids": [2]}',
    '{"seed": 0, "ratios": [0.8, 0.1, 0.1], "train_ids": [0, 1], "val_ids": [], "test_ids": [2, 99999999999999999999]}',
], ids=["not-json", "not-utf8", "number", "missing-key", "overlap", "string-id", "float-id", "huge-id"])
def test_malformed_split_file_is_corrupt(capsys, tmp_path, text):
    data = gen_small(capsys, tmp_path)
    bad = tmp_path / "split.json"
    bad.write_bytes(text.encode("latin-1"))
    code, _, err = run(
        capsys, "index", "--data", str(data), "--method", "dft", "--m", "4", "--split", str(bad),
        "--partition", "train", "--output", str(tmp_path / "x.idx"),
    )
    assert code == 24 and f"split file {bad}" in err


def test_split_or_config_that_is_a_directory_is_missing(capsys, tmp_path):
    data = gen_small(capsys, tmp_path)
    code, _, err = run(
        capsys, "index", "--data", str(data), "--method", "dft", "--m", "4", "--split", str(tmp_path),
        "--partition", "train", "--output", str(tmp_path / "x.idx"),
    )
    assert code == 23 and "split file not found" in err
    code, _, err = run(capsys, "gen", "--family", "example1", "--config", str(tmp_path), "--output", str(tmp_path / "x.csv"))
    assert code == 23 and "config file not found" in err


# -------------------------------------------------------------------- train

def test_train_writes_model_and_log(capsys, tmp_path):
    data = gen_small(capsys, tmp_path)
    model = tmp_path / "model.bin"
    code, stdout, _ = run(
        capsys, "train", "--data", str(data), "--m", "4", "--desk",
        "--iterations", "120", "--model-out", str(model),
    )
    assert code == 0 and "model ->" in stdout
    assert model.read_bytes()[:4] == b"CHR1"
    log = (tmp_path / "model.bin.log.csv").read_text().strip().splitlines()
    assert log[0] == "iter,train_loss,val_loss,wall_ms"
    assert int(log[-1].split(",")[0]) == 120
    # training on this family reduces the loss from initialization
    assert float(log[-1].split(",")[1]) < float(log[1].split(",")[1])


def test_train_empty_log_out_is_the_default(capsys, tmp_path):
    # as an empty --manifest falls back to its default, so does an empty --log-out
    data = gen_small(capsys, tmp_path)
    model = tmp_path / "model.bin"
    code, stdout, err = run(
        capsys, "train", "--data", str(data), "--m", "4", "--desk",
        "--iterations", "5", "--model-out", str(model), "--log-out", "",
    )
    assert code == 0 and "model ->" in stdout, err
    log = tmp_path / "model.bin.log.csv"
    assert log.read_text().startswith("iter,train_loss,val_loss,wall_ms\n")
    doc = json.loads((tmp_path / "model.bin.manifest.json").read_text())
    assert doc["params"]["log_out"] == doc["outputs"]["log"]["path"] == str(log)


def test_train_log_out_that_keeps_nothing(capsys, tmp_path):
    # a log at /dev/null cannot be read back for the summary: the run still
    # writes the model and the manifest, and says what it trained
    data = gen_small(capsys, tmp_path)
    model = tmp_path / "model.bin"
    code, stdout, err = run(
        capsys, "train", "--data", str(data), "--m", "4", "--desk",
        "--iterations", "5", "--model-out", str(model), "--log-out", os.devnull,
    )
    assert (code, err) == (0, "")
    assert stdout == f"trained approximate m=4 over 5 iterations\nmodel -> {model}\n"
    assert model.read_bytes()[:4] == b"CHR1"
    doc = json.loads((tmp_path / "model.bin.manifest.json").read_text())
    assert doc["outputs"]["log"]["path"] == os.devnull
    assert doc["outputs"]["model"]["sha256"] == hashlib.sha256(model.read_bytes()).hexdigest()


def test_train_zero_iterations_saves_init(capsys, tmp_path):
    data = gen_small(capsys, tmp_path)
    model = tmp_path / "model.bin"
    code, _, _ = run(
        capsys, "train", "--data", str(data), "--m", "4", "--desk",
        "--iterations", "0", "--model-out", str(model),
    )
    assert code == 0
    params = load_model(str(model))
    cfg = desk_config(m=4)
    want = init_params(16, cfg.hidden_size, 4, cfg.seed)
    for a, b in zip(params.weights + params.biases, want.weights + want.biases):
        np.testing.assert_array_equal(a, b)


def test_train_missing_data_exit_code(capsys, tmp_path):
    code, _, _ = run(
        capsys, "train", "--data", str(tmp_path / "ghost.csv"), "--m", "4",
        "--model-out", str(tmp_path / "m.bin"),
    )
    assert code == 23


def test_train_requires_m(capsys, tmp_path):
    data = gen_small(capsys, tmp_path)
    code, _, err = run(capsys, "train", "--data", str(data), "--model-out", str(tmp_path / "m.bin"))
    assert code == 2 and "--m" in err


# -------------------------------------------------------------------- index

def build_index(capsys, tmp_path, data, method="dft", m="8", extra=()):
    out = tmp_path / f"{method}.idx"
    code, _, err = run(
        capsys, "index", "--data", str(data), "--method", method, "--m", m,
        "--output", str(out), *extra,
    )
    assert code == 0, err
    return out


@pytest.mark.parametrize("flag", ["--split", "--model"])
def test_index_input_left_unread_must_name_a_file(capsys, tmp_path, flag):
    # a dft index over --partition all reads neither, and its manifest would hash
    # both as inputs: either is a usage error, given a file or not
    data = gen_small(capsys, tmp_path)
    out = tmp_path / "x.cix1"
    for path in (tmp_path / "absent", data):
        code, stdout, err = run(
            capsys, "index", "--data", str(data), "--method", "dft", "--m", "4", "--partition", "all",
            flag, str(path), "--output", str(out),
        )
        assert code == 2 and stdout == "" and f"{flag} is not taken with" in err
        assert not out.exists() and not Path(f"{out}.manifest.json").exists()


@pytest.mark.parametrize("m, code", [("7", 2), ("4", 0)])
def test_index_m_must_be_the_models_width(capsys, tmp_path, monkeypatch, m, code):
    data = gen_small(capsys, tmp_path)
    model = tmp_path / "m.chr1"
    assert run(capsys, "train", "--data", str(data), "--m", "4", "--desk", "--iterations", "5",
               "--model-out", str(model))[0] == 0
    out = tmp_path / "x.cix1"
    got, stdout, err = run(
        capsys, "index", "--data", str(data), "--method", "learned-order", "--m", m, "--model", str(model),
        "--output", str(out),
    )
    assert got == code, err
    if code:
        assert stdout == "" and "--m 7 is not the model's output width 4" in err and not out.exists()
        # checked before --data is read: it names no file, and `load_csv` is not called
        monkeypatch.setattr("corrspace.commands.load_csv", None)
        got, stdout, err = run(
            capsys, "index", "--data", str(tmp_path / "absent.csv"), "--method", "learned-order", "--m", m,
            "--model", str(model), "--output", str(out),
        )
        assert (got, stdout, err) == (2, "", "error: --m 7 is not the model's output width 4\n")
    else:
        assert load_index(str(out))[1]["m"] == 4


def test_index_metadata(capsys, tmp_path):
    data = gen_small(capsys, tmp_path)
    idx = build_index(capsys, tmp_path, data)
    tree, meta = load_index(str(idx))
    assert tree.n == 100 and tree.m == 8
    assert meta["method"] == "dft" and meta["m"] == 8 and meta["series_length"] == 16


def test_index_partition_uses_split(capsys, tmp_path):
    data = gen_small(capsys, tmp_path)
    split_path = tmp_path / "split.json"
    run(capsys, "split", "--data", str(data), "--output", str(split_path))
    idx = build_index(
        capsys, tmp_path, data, extra=("--split", str(split_path), "--partition", "train")
    )
    tree, _ = load_index(str(idx))
    assert tree.n == 80


def test_index_learned_method_requires_model(capsys, tmp_path):
    data = gen_small(capsys, tmp_path)
    code, _, err = run(
        capsys, "index", "--data", str(data), "--method", "learned-approx",
        "--output", str(tmp_path / "x.idx"),
    )
    assert code == 2 and "method learned-approx requires --model" in err  # a usage error, as every required flag


@pytest.mark.parametrize("argv, code, message", [
    (("index", "--method", "dft"), 2, "method dft requires --m"),
    (("index", "--method", "dft", "--m", "4", "--partition", "train"), 2, "--partition needs --split"),
    (("index", "--method", "learned-order"), 2, "method learned-order requires --model"),
    (("index", "--method", "downsample", "--m", "4", "--model", "m.chr1"), 2,
     "--model is not taken with method downsample"),
    (("index", "--method", "dft", "--m", "4", "--split", "s.json"), 2, "--split is not taken with --partition all"),
    (("train", "--m", "4", "--ratios", "bogus"), 2, 'cannot read "bogus" as a list of numbers'),
], ids=["index-m", "index-split", "index-model", "index-unread-model", "index-unread-split", "train-ratios"])
def test_own_flags_are_checked_before_the_data_is_read(capsys, tmp_path, argv, code, message):
    # --data names no file, which would exit 23 ("data file not found") were it read first
    out = "--output" if argv[0] == "index" else "--model-out"
    got, stdout, err = run(capsys, *argv, "--data", str(tmp_path / "absent.csv"), out, str(tmp_path / "out"))
    assert (got, stdout) == (code, "") and message in err and "not found" not in err
    assert list(tmp_path.iterdir()) == []


# -------------------------------------------------------------------- query

def oracle_ids(data_path, query_id, k):
    """The ids of the k series most correlated with `query_id`, ties by id, by plain numpy."""
    ds = load_csv(str(data_path), "csv_id")
    return by_correlation(ds.values[ds.ids == query_id][0], ds.values, ds.ids, without=query_id)[0][:k].tolist()


def query_modes(capsys, tmp_path, data):
    """The `query` arguments of both modes over `data`: the exact oracle and a DFT index."""
    return {
        "exact": ("--exact", "--data", str(data)),
        "index": ("--index", str(build_index(capsys, tmp_path, data)), "--data", str(data)),
    }


def parse_hits(stdout):
    lines = [l for l in stdout.strip().splitlines() if l and not l.startswith("#")]
    assert lines[0] == "id dist2 corr_est"
    out = []
    for line in lines[1:]:
        i, d2, corr = line.split()
        out.append((int(i), float(d2), float(corr)))
    return out


def test_query_exact_self_excluded(capsys, tmp_path):
    data = gen_small(capsys, tmp_path)
    code, stdout, _ = run(
        capsys, "query", "--exact", "--data", str(data), "--query-id", "7", "--k", "3"
    )
    assert code == 0
    hits = parse_hits(stdout)
    assert [h[0] for h in hits] == oracle_ids(data, 7, 3)
    assert all(h[0] != 7 for h in hits)


def test_query_exact_threshold_self_excluded(capsys, tmp_path):
    data = gen_small(capsys, tmp_path)
    code, stdout, err = run(capsys, "query", "--exact", "--data", str(data), "--query-id", "7", "--threshold", "0.5")
    assert code == 0, err
    ds = load_csv(str(data), "csv_id")
    ids, corr = by_correlation(ds.values[ds.ids == 7][0], ds.values, ds.ids, without=7)
    keep = corr >= 0.5
    assert 0 < np.count_nonzero(keep) < len(ids)
    hits = parse_hits(stdout)
    assert [h[0] for h in hits] == ids[keep].tolist()
    np.testing.assert_allclose([h[2] for h in hits], corr[keep], atol=1e-8)
    np.testing.assert_allclose([h[1] for h in hits], 2.0 - 2.0 * corr[keep], atol=1e-8)


@pytest.mark.parametrize("given, message", [
    (("--index", "{tmp}/absent.cix1"), "--index is not taken with --exact: it answers from every series of --data"),
    (("--model", "{tmp}/absent.chr1"), "unrecognized arguments: --model {tmp}/absent.chr1"),  # no flag of `query`
    ((), "--exact requires --data"),
], ids=["index", "model", "no-data"])
def test_exact_query_refusals_come_before_any_file_is_read(capsys, tmp_path, given, message):
    # --data names no file, which would exit 23 were it read first
    data = () if not given else ("--data", str(tmp_path / "absent.csv"))
    argv = ("query", "--exact", *data, *(arg.format(tmp=tmp_path) for arg in given), "--query-id", "1")
    try:
        result = run(capsys, *argv)
    except SystemExit as exc:  # argparse's usage error: its usage lines, then "corrspace: " and the message
        out, err = capsys.readouterr()
        result = (exc.code, out, err.splitlines()[-1].removeprefix("corrspace: ") + "\n")
    assert result == (2, "", f"error: {message.format(tmp=tmp_path)}\n")


@pytest.mark.parametrize("bad, exit_code", [
    (("--k", "0"), 2),
    (("--threshold", "2"), 2),
    (("--threshold", "0.5", "--slack", "0"), 2),
    (("--query-id", "1000"), 23),  # an id the data lacks
])
def test_query_modes_fail_alike(capsys, tmp_path, bad, exit_code):
    data = gen_small(capsys, tmp_path)
    args = {"--query-id": "1", "--k": "3", **dict(zip(bad[::2], bad[1::2]))}
    for how in query_modes(capsys, tmp_path, data).values():
        code, stdout, _ = run(capsys, "query", *how, *(x for kv in args.items() for x in kv))
        assert (code, stdout) == (exit_code, "")


@pytest.mark.parametrize("slack", ["inf", "nan"])
def test_query_slack_must_be_finite(capsys, tmp_path, slack):
    # r² = slack·(1−η) is NaN for slack inf at η = 1, and every NaN radius matches nothing
    data = gen_small(capsys, tmp_path)
    idx = build_index(capsys, tmp_path, data)
    code, stdout, err = run(capsys, "query", "--index", str(idx), "--query-id", "1", "--threshold", "1", "--slack", slack)
    assert (code, stdout) == (2, "") and "--slack must be positive and finite" in err


def test_query_exact_ranks_by_unclipped_distance(capsys, tmp_path):
    # near-duplicates of one series: the computed correlation of id 5 with
    # the query is 1 + 2⁻⁵², of ids 0 and 2 exactly 1. All three print as
    # corr 1 and d² 0, but they rank by the unclipped d² = 2 − 2·corr, as
    # `eval`'s oracle ranks, so id 5 comes first
    v = np.random.default_rng(0).standard_normal(16)
    ds = Dataset(ids=np.array([0, 1, 2, 5]), values=np.array([v, 17.28 * v + 1.86, 10.88 * v + 1.5, 0.66 * v - 3.65]))
    path = tmp_path / "dup.csv"
    save_csv(ds, path)
    h = load_csv(str(path), "csv_id").normalized_matrix()
    assert (h @ h[1]).tolist() == [1.0, 1.0 + 2.0**-52, 1.0, 1.0 + 2.0**-52]  # ids 0, 1 (the query), 2, 5
    for how in (("--k", "3"), ("--threshold", "0.5")):
        code, stdout, _ = run(capsys, "query", "--exact", "--data", str(path), "--query-id", "1", *how)
        assert code == 0
        assert stdout.splitlines()[1:] == ["id dist2 corr_est", "5 0 1", "0 0 1", "2 0 1"]


def test_query_index_matches_oracle_on_exact_family(capsys, tmp_path):
    # the half-width DFT baseline is lossless on this family, so the indexed
    # path must return the oracle's ids in the oracle's order
    data = gen_small(capsys, tmp_path)
    idx = build_index(capsys, tmp_path, data)
    code, stdout, _ = run(
        capsys, "query", "--index", str(idx), "--data", str(data), "--query-id", "7", "--k", "5"
    )
    assert code == 0
    assert [h[0] for h in parse_hits(stdout)] == oracle_ids(data, 7, 5)


def test_query_threshold_hits_respect_bound(capsys, tmp_path):
    # query with an external copy of an indexed series (no self-exclusion),
    # so the copy itself is a guaranteed hit at distance ~0
    data = gen_small(capsys, tmp_path)
    idx = build_index(capsys, tmp_path, data)
    qfile = tmp_path / "q.csv"
    ds = load_csv(str(data), "csv_id")
    qfile.write_text(",".join(f"{v:.17g}" for v in ds.values[3]) + "\n")
    eta = 0.9
    code, stdout, _ = run(
        capsys, "query", "--index", str(idx), "--query-file", str(qfile),
        "--threshold", str(eta),
    )
    assert code == 0
    hits = parse_hits(stdout)
    assert hits and hits[0][0] == 3
    for _, d2, corr_est in hits:
        assert d2 <= (1.0 - eta) + 1e-12
        assert corr_est >= eta - 1e-12


def test_query_k_larger_than_pool_returns_everything(capsys, tmp_path):
    data = gen_small(capsys, tmp_path, n=20)
    idx = build_index(capsys, tmp_path, data)
    code, stdout, _ = run(
        capsys, "query", "--index", str(idx), "--data", str(data), "--query-id", "0",
        "--k", "999",
    )
    assert code == 0
    assert len(parse_hits(stdout)) == 19  # all pool series minus the query itself


def test_query_near_constant_series_by_id(capsys, tmp_path):
    # the row is not constant under the one rule (max != min): it is indexed and can be queried
    rng = np.random.default_rng(4)
    rows = rng.standard_normal((11, 32))
    rows[5] = 1.0
    rows[5, -1] = 1.000000000000001
    data = tmp_path / "near.csv"
    data.write_text("".join(f"{i}," + ",".join(f"{v:.17g}" for v in row) + "\n" for i, row in enumerate(rows)))
    idx = build_index(capsys, tmp_path, data, m="4")
    code, stdout, err = run(capsys, "query", "--index", str(idx), "--data", str(data), "--query-id", "5", "--k", "3")
    assert code == 0, err
    assert len(parse_hits(stdout)) == 3


@pytest.mark.parametrize("scale", ["1e200", "1e-170"])
def test_query_series_at_extreme_magnitudes(capsys, tmp_path, scale):
    # rows 0-5 scaled: their correlations, and so every answer, match the unscaled file's
    data = gen_small(capsys, tmp_path, n=12)
    ds = load_csv(str(data), "csv_id")
    scaled = tmp_path / "scaled.csv"
    values = ds.values.copy()
    values[:6] *= float(scale)
    scaled.write_text("".join(f"{i}," + ",".join(f"{v:.17g}" for v in row) + "\n" for i, row in zip(ds.ids, values)))
    answers = []
    for path in (data, scaled):
        for how in (("--exact",), ("--index", str(build_index(capsys, tmp_path, path)))):
            code, stdout, err = run(capsys, "query", *how, "--data", str(path), "--query-id", "8", "--k", "11")
            assert code == 0, err
            answers.append(parse_hits(stdout))
    for hits in answers[1:]:
        assert [h[0] for h in hits] == [h[0] for h in answers[0]]
        np.testing.assert_allclose([h[2] for h in hits], [h[2] for h in answers[0]], atol=1e-8)


def test_query_file_input(capsys, tmp_path):
    data = gen_small(capsys, tmp_path)
    idx = build_index(capsys, tmp_path, data)
    qfile = tmp_path / "queries.csv"
    ds = load_csv(str(data), "csv_id")
    qfile.write_text(",".join(f"{v:.17g}" for v in ds.values[0]) + "\n")
    code, stdout, _ = run(capsys, "query", "--index", str(idx), "--query-file", str(qfile), "--k", "2")
    assert code == 0
    hits = parse_hits(stdout)
    assert len(hits) == 2
    assert hits[0][0] == 0  # external copy of series 0 finds it at distance ~0
    assert hits[0][1] == pytest.approx(0.0, abs=1e-9)


def test_query_file_labels_by_data_row(capsys, tmp_path):
    data = gen_small(capsys, tmp_path)
    idx = build_index(capsys, tmp_path, data)
    ds = load_csv(str(data), "csv_id")
    qfile = tmp_path / "qf.csv"
    rows = [np.full(ds.length, 2.5), ds.values[4], ds.values[9]]  # the constant row is dropped
    qfile.write_text("".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in rows))
    code, stdout, _ = run(capsys, "query", "--index", str(idx), "--query-file", str(qfile), "--k", "1")
    assert code == 0
    lines = stdout.splitlines()
    assert [line.split()[2] for line in lines[0::3]] == [f"{qfile}[1]", f"{qfile}[2]"]
    assert [int(line.split()[0]) for line in lines[2::3]] == [4, 9]


@pytest.mark.parametrize("query, bad", [
    ("id", ("--k", "0")),
    ("file", ("--k", "0")),
    ("id", ("--threshold", "1.5")),
    ("id", ("--threshold", "0.9", "--slack", "0")),
])
def test_query_rejects_bad_arguments_before_loading(capsys, tmp_path, query, bad):
    data = gen_small(capsys, tmp_path)
    idx = build_index(capsys, tmp_path, data)
    source = ("--query-id", "1", "--data", str(data)) if query == "id" else ("--query-file", str(data))
    code, stdout, err = run(capsys, "query", "--index", str(idx), *source, *bad)
    assert code == 2 and stdout == ""
    assert bad[-2] in err
    # the arguments are checked before any file is opened
    code, _, _ = run(capsys, "query", "--index", str(tmp_path / "ghost.idx"), "--query-id", "1", *bad)
    assert code == 2


def test_query_argument_errors(capsys, tmp_path):
    data = gen_small(capsys, tmp_path)
    idx = build_index(capsys, tmp_path, data)
    # neither --query-id nor --query-file
    code, _, _ = run(capsys, "query", "--index", str(idx), "--data", str(data))
    assert code == 2
    # both at once
    code, _, _ = run(
        capsys, "query", "--index", str(idx), "--data", str(data),
        "--query-id", "1", "--query-file", str(data),
    )
    assert code == 2
    # no index and not --exact
    code, _, _ = run(capsys, "query", "--data", str(data), "--query-id", "1")
    assert code == 2
    # index file does not exist
    code, _, _ = run(
        capsys, "query", "--index", str(tmp_path / "ghost.idx"), "--data", str(data),
        "--query-id", "1",
    )
    assert code == 23


@pytest.mark.parametrize("mode", ["index", "exact"])
def test_query_length_must_match_the_index(capsys, tmp_path, mode):
    # length-16 series, in a DFT index or searched exactly, and a query file of length-8 series
    data = gen_small(capsys, tmp_path)
    qf = tmp_path / "short.csv"
    qf.write_text("1,2,3,4,5,6,7,9\n")
    how = query_modes(capsys, tmp_path, data)[mode]
    code, stdout, err = run(capsys, "query", *how, "--query-file", str(qf), "--k", "3")
    assert code == 11
    assert stdout == "" and "length 8" in err and "length 16" in err


@pytest.mark.parametrize("mode", [("--index", "ghost.cix1"), ("--exact",)], ids=["index", "exact"])
def test_missing_query_file_is_named_before_the_index_or_data_is_read(capsys, tmp_path, mode):
    # neither the index nor --data names a file: read first, either would be the error
    argv = [*(str(tmp_path / a) if a.startswith("ghost") else a for a in mode), "--data", str(tmp_path / "ghost.csv")]
    for query_file in (tmp_path / "nope.csv", tmp_path):
        code, stdout, err = run(capsys, "query", *argv, "--query-file", str(query_file))
        assert (code, stdout, err) == (23, "", f"error: query file not found: {query_file}\n")


@pytest.mark.parametrize("edit", [
    {"method": None},  # the key deleted
    {"method": "pca"},
    {"m": "x"},
    {"m": 4},  # the points are 8 wide
    {"series_length": "16"},
    {"method": ["dft"]},
], ids=["no-method", "unknown-method", "m-not-an-integer", "m-not-the-width", "series-length-a-string", "method-a-list"])
def test_query_index_meta_without_method_is_corrupt(capsys, tmp_path, edit):
    data = gen_small(capsys, tmp_path)
    idx = build_index(capsys, tmp_path, data)
    tree, meta = load_index(str(idx))
    for key, value in edit.items():
        if value is None:
            del meta[key]
        else:
            meta[key] = value
    save_index(tree, str(idx), meta)
    code, _, err = run(capsys, "query", "--index", str(idx), "--data", str(data), "--query-id", "1")
    assert code == 24 and "lacks method" in err


@pytest.mark.parametrize("damage", ["truncate", "trailing"])
def test_corrupt_index_and_model_exit_code(capsys, tmp_path, damage):
    data = gen_small(capsys, tmp_path)
    idx = build_index(capsys, tmp_path, data)
    model = tmp_path / "model.chr1"
    code, _, err = run(
        capsys, "train", "--data", str(data), "--m", "4", "--desk", "--iterations", "5",
        "--model-out", str(model), "--log-out", str(tmp_path / "log.csv"),
    )
    assert code == 0, err
    commands = {
        idx: ("query", "--index", str(idx), "--data", str(data), "--query-id", "1"),
        model: ("index", "--data", str(data), "--method", "learned-order", "--model", str(model),
                "--output", str(tmp_path / "learned.idx")),
    }
    for path, argv in commands.items():
        blob = path.read_bytes()
        path.write_bytes(blob[:-3] if damage == "truncate" else blob + b"\x00")
        code, _, err = run(capsys, *argv)
        assert code == 24, err
        assert err.startswith(f"error: {path}: ")
        path.write_bytes(blob)


@pytest.mark.parametrize("blob, message", [
    (b"CHR1" + struct.pack("<I", 0) + struct.pack("<Q", 0), "model has no layers"),
    (
        b"CHR1" + struct.pack("<I", 2) + struct.pack("<II", 3, 16) + bytes(8 * 3 * 17)
        + struct.pack("<II", 2, 5) + bytes(8 * 2 * 6) + struct.pack("<Q", 0),
        "layer shapes do not chain",
    ),
], ids=["no-layers", "unchained"])
def test_model_that_is_no_network_is_corrupt(capsys, tmp_path, blob, message):
    data = gen_small(capsys, tmp_path)
    model = tmp_path / "model.chr1"
    model.write_bytes(blob)
    out = tmp_path / "learned.idx"
    code, stdout, err = run(
        capsys, "index", "--data", str(data), "--method", "learned-order", "--model", str(model), "--output", str(out),
    )
    assert (code, stdout, err) == (24, "", f"error: {model}: {message}\n")
    assert not out.exists()


def as_version_2(idx):
    """`idx` rewritten as a version-2 index, as `index` wrote a learned index
    before an index held its model: the same rows and metadata, which name
    the model file and its sha256, without the model."""
    tree, meta = load_index(str(idx))
    save_index(tree, str(idx), meta)
    assert struct.unpack_from("<I", idx.read_bytes(), 4) == (2,)
    return idx


def test_non_finite_model_weight_exit_code(capsys, tmp_path):
    # a model file that holds a NaN weight builds no index
    data = gen_small(capsys, tmp_path)
    model = tmp_path / "model.chr1"
    code, _, err = run(
        capsys, "train", "--data", str(data), "--m", "4", "--desk", "--iterations", "5",
        "--model-out", str(model), "--log-out", str(tmp_path / "log.csv"),
    )
    assert code == 0, err
    blob = bytearray(model.read_bytes())  # `save_model` writes no NaN: put one in the first weight's bytes
    blob[16:24] = struct.pack("<d", np.nan)
    model.write_bytes(blob)
    out = tmp_path / "learned.idx"
    code, stdout, err = run(
        capsys, "index", "--data", str(data), "--method", "learned-order", "--model", str(model), "--output", str(out),
    )
    assert (code, stdout) == (24, "") and not out.exists()
    assert err == f"error: {model}: layer 0 holds a non-finite weight or bias\n"


def learned_index(capsys, tmp_path, data):
    model = tmp_path / "model.chr1"
    code, _, err = run(
        capsys, "train", "--data", str(data), "--m", "4", "--desk", "--iterations", "20",
        "--model-out", str(model), "--log-out", str(tmp_path / "log.csv"),
    )
    assert code == 0, err
    return build_index(capsys, tmp_path, data, method="learned-order", m="4", extra=("--model", str(model)))


def train_model(capsys, tmp_path, data, seed, model=None):
    model = model or tmp_path / "model.chr1"
    code, _, err = run(
        capsys, "train", "--data", str(data), "--m", "4", "--desk", "--iterations", "20", "--seed", str(seed),
        "--loss", "order", "--model-out", str(model), "--log-out", str(tmp_path / "log.csv"),
    )
    assert code == 0, err
    return model


def test_index_records_the_sha256_of_its_model(capsys, tmp_path):
    data = gen_small(capsys, tmp_path)
    model = train_model(capsys, tmp_path, data, seed=0)
    _, meta = load_index(str(build_index(capsys, tmp_path, data, "learned-order", "4", ("--model", str(model)))))
    assert meta["model_sha256"] == hashlib.sha256(model.read_bytes()).hexdigest()
    _, meta = load_index(str(build_index(capsys, tmp_path, data)))
    assert "model_sha256" not in meta  # dft uses no model


def test_index_without_a_model_hash_is_not_checked(capsys, tmp_path):
    # the model's sha256 is provenance: an index without it, whose model
    # file has since been trained again, answers from the model it holds
    data = gen_small(capsys, tmp_path)
    model = train_model(capsys, tmp_path, data, seed=0)
    idx = build_index(capsys, tmp_path, data, "learned-order", "4", ("--model", str(model)))
    argv = ("query", "--index", str(idx), "--data", str(data), "--query-id", "3", "--k", "4")
    code, before, err = run(capsys, *argv)
    assert code == 0 and len(parse_hits(before)) == 4, err
    tree, meta, held = load_index(str(idx), with_model=True)
    del meta["model_sha256"]
    save_index(tree, str(idx), meta, held)
    train_model(capsys, tmp_path, data, seed=1, model=model)
    assert run(capsys, *argv) == (0, before, "")


def test_learned_index_holds_its_model(capsys, tmp_path):
    # `index` with a learned method writes version 3: version 2's layout plus
    # the model's CHR1 bytes, exactly as `save_model` writes them
    data = gen_small(capsys, tmp_path)
    model = train_model(capsys, tmp_path, data, seed=0)
    idx = build_index(capsys, tmp_path, data, "learned-order", "4", ("--model", str(model)))
    blob = idx.read_bytes()
    version, _, _, meta_len, model_len = struct.unpack_from("<IIIIQ", blob, 4)
    assert (version, model_len) == (3, model.stat().st_size)
    assert blob[28 + meta_len : 28 + meta_len + model_len] == model.read_bytes()
    tree, meta, held = load_index(str(idx), with_model=True)
    assert held.flat.tobytes() == load_model(str(model)).flat.tobytes()
    for method in ("dft", "downsample"):  # a fixed embedder needs no model
        assert struct.unpack_from("<I", build_index(capsys, tmp_path, data, method, "4").read_bytes(), 4) == (2,)


# every form of `query`; {d} is the data file, {q} a query-series file
QUERY_FORMS = {
    "held id": "--query-id 3 --k 5",
    "held id, threshold": "--query-id 3 --threshold 0.3 --slack 1.5",
    "id the index lacks": "--query-id {lacking} --data {d} --k 5",
    "query file": "--query-file {q} --k 4",
    "query file, threshold": "--query-file {q} --threshold 0.5",
}


@pytest.mark.parametrize("form", list(QUERY_FORMS), ids=list(QUERY_FORMS))
def test_version_3_answers_as_version_2(capsys, tmp_path, form):
    # the model inside the index answers as the model file it was built with,
    # from which a version-2 index embedded its queries: each block lists the
    # index's own search for that file's embedding
    data = gen_small(capsys, tmp_path)
    model = train_model(capsys, tmp_path, data, seed=0)
    split_path = tmp_path / "split.json"
    assert run(capsys, "split", "--data", str(data), "--output", str(split_path))[0] == 0
    idx = build_index(capsys, tmp_path, data, "learned-order", "4", (
        "--model", str(model), "--split", str(split_path), "--partition", "train",
    ))
    queries = tmp_path / "queries.csv"
    queries.write_text("".join(line.split(",", 1)[1] for line in data.read_text().splitlines(True)[:3]))
    lacking = json.loads(split_path.read_text())["test_ids"][0]
    argv = QUERY_FORMS[form].format(d=data, q=queries, lacking=lacking).split()
    code, stdout, err = run(capsys, "query", "--index", str(idx), *argv)
    assert code == 0, err
    tree, _ = load_index(str(idx))
    embed = LearnedEmbedder(load_model(str(model))).embed_matrix
    ds, qds = load_csv(str(data), "csv_id"), load_csv(str(queries), "csv")
    if form.startswith("held id"):
        wanted = [(tree.point(3), 3)]
    elif form == "id the index lacks":
        wanted = [(embed(ds.normalized_matrix(ds.rows_for([lacking])))[0], lacking)]
    else:
        wanted = [(embed(row[np.newaxis])[0], None) for row in normalize_rows(qds.values, qds.ids)]
    opts = dict(zip(argv[::2], argv[1::2]))
    blocks = []
    for q, self_id in wanted:
        if "--threshold" in opts:
            res = tree.within_radius(q, threshold_radius_sq(float(opts["--threshold"]), float(opts.get("--slack", 1))))
        else:
            res = tree.top_k(q, int(opts["--k"]) + 1)
        hits = [f"{i} {d2:.9g}" for i, d2 in zip(res.ids, res.distances_sq) if i != self_id]
        blocks.append(hits if "--threshold" in opts else hits[: int(opts["--k"])])
    printed = [[" ".join(line.split()[:2]) for line in block.splitlines()[2:]] for block in stdout.split("# query")[1:]]
    assert printed == blocks and all(blocks)  # a hit in every block, at least


def test_version_3_index_answers_from_any_directory(capsys, tmp_path, monkeypatch):
    # an index built with a relative --model answers alike from another
    # working directory: it reads no model file, so the path does not matter
    data = gen_small(capsys, tmp_path)
    train_model(capsys, tmp_path, data, seed=0, model=tmp_path / "m.chr1")
    monkeypatch.chdir(tmp_path)
    code, _, err = run(capsys, "index", "--data", "data.csv", "--method", "learned-order", "--model", "m.chr1",
                       "--output", "learned.idx")
    assert code == 0, err
    queries = tmp_path / "queries.csv"
    queries.write_text("".join(line.split(",", 1)[1] for line in data.read_text().splitlines(True)[:2]))
    argvs = [("--query-id", "3", "--k", "5"), ("--query-file", str(queries), "--k", "5")]
    here = [run(capsys, "query", "--index", "learned.idx", *argv) for argv in argvs]
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    there = [run(capsys, "query", "--index", str(tmp_path / "learned.idx"), *argv) for argv in argvs]
    assert [code for code, _, _ in here] == [0, 0]
    assert there == here


def test_version_3_index_reads_no_model_file(capsys, tmp_path):
    # the model file may change or go once the index holds its model
    data = gen_small(capsys, tmp_path)
    model = train_model(capsys, tmp_path, data, seed=0)
    idx = build_index(capsys, tmp_path, data, "learned-order", "4", ("--model", str(model)))
    argv = ("query", "--index", str(idx), "--data", str(data), "--query-id", "3", "--k", "5")
    code, before, err = run(capsys, *argv)
    assert code == 0, err
    train_model(capsys, tmp_path, data, seed=1, model=model)
    assert run(capsys, *argv) == (0, before, "")
    model.unlink()
    assert run(capsys, *argv) == (0, before, "")


def query_with_model(capsys, idx, model):
    """`query --model` of `idx`: argparse's usage error, as for any flag
    `query` does not take; an index holds what it embeds with."""
    with pytest.raises(SystemExit) as exc:
        main(["query", "--index", str(idx), "--query-id", "3", "--model", str(model)])
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (2, "")
    assert captured.err.endswith(f"error: unrecognized arguments: --model {model}\n")


def test_model_flag_with_a_version_3_index_is_a_usage_error(capsys, tmp_path):
    # a learned index holds its model: `query` takes no --model, nor a `model` key in its --config file
    data = gen_small(capsys, tmp_path)
    model = train_model(capsys, tmp_path, data, seed=0)
    idx = build_index(capsys, tmp_path, data, "learned-order", "4", ("--model", str(model)))
    query_with_model(capsys, idx, model)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"model": str(model)}))
    code, stdout, err = run(capsys, "query", "--config", str(config), "--index", str(idx), "--query-id", "3")
    assert (code, stdout, err) == (2, "", f"error: config file {config}: unknown keys ['model']\n")


@pytest.mark.parametrize("method", ["dft", "downsample"])
@pytest.mark.parametrize("exists", [False, True], ids=["missing-model", "model"])
def test_model_flag_with_a_fixed_index_is_a_usage_error(capsys, tmp_path, method, exists):
    data = gen_small(capsys, tmp_path)
    idx = build_index(capsys, tmp_path, data, method, "4")
    model = train_model(capsys, tmp_path, data, seed=0) if exists else tmp_path / "absent.chr1"
    query_with_model(capsys, idx, model)


def test_version_2_index_that_names_no_model(capsys, tmp_path):
    # a learned version-2 index named its model file: refused whether or not
    # it names one, with the way to a version `query` reads
    data = gen_small(capsys, tmp_path)
    model = train_model(capsys, tmp_path, data, seed=0)
    idx = as_version_2(build_index(capsys, tmp_path, data, "learned-order", "4", ("--model", str(model))))
    tree, meta = load_index(str(idx))
    for named in (meta["model"], None):
        save_index(tree, str(idx), {**meta, "model": named})
        code, stdout, err = run(capsys, "query", "--index", str(idx), "--query-id", "3")
        assert (code, stdout) == (24, "")
        assert err == f"error: {idx}: holds no learned-order model: rebuild it with `corrspace index`\n"


def test_version_1_index_is_corrupt(capsys, tmp_path):
    # a version-1 index held its rows in input order: it is rebuilt, not read
    data = gen_small(capsys, tmp_path)
    idx = build_index(capsys, tmp_path, data)
    idx.write_bytes(idx.read_bytes()[:4] + struct.pack("<I", 1) + idx.read_bytes()[8:])
    code, stdout, err = run(capsys, "query", "--index", str(idx), "--query-id", "3")
    assert (code, stdout, err) == (
        24, "", f"error: {idx}: unsupported index version 1: rebuild it with `corrspace index`\n"
    )


def test_version_3_index_of_a_fixed_method_is_corrupt(capsys, tmp_path):
    # only a learned method embeds with a model: a dft index that holds one is damaged
    data = gen_small(capsys, tmp_path)
    model = train_model(capsys, tmp_path, data, seed=0)
    idx = build_index(capsys, tmp_path, data, "learned-order", "4", ("--model", str(model)))
    tree, meta, held = load_index(str(idx), with_model=True)
    save_index(tree, str(idx), {**meta, "method": "dft"}, held)
    code, stdout, err = run(capsys, "query", "--index", str(idx), "--query-id", "3")
    assert code == 24 and stdout == "" and "method 'dft'" in err


@pytest.mark.parametrize("method", [["learned-order"], {"learned-order": 1}], ids=["list", "object"])
def test_version_3_index_whose_method_is_no_string_is_corrupt(capsys, tmp_path, method):
    data = gen_small(capsys, tmp_path)
    model = train_model(capsys, tmp_path, data, seed=0)
    idx = build_index(capsys, tmp_path, data, "learned-order", "4", ("--model", str(model)))
    tree, meta, held = load_index(str(idx), with_model=True)
    save_index(tree, str(idx), {**meta, "method": method}, held)
    code, stdout, err = run(capsys, "query", "--index", str(idx), "--query-id", "3")
    assert (code, stdout) == (24, "") and "lacks method" in err


@pytest.mark.parametrize("method", ["dft", "learned-order"])
@pytest.mark.parametrize("how", [("--k", "5"), ("--threshold", "0.2")])
def test_query_id_the_index_holds_answers_alike_without_data(capsys, tmp_path, method, how):
    data = gen_small(capsys, tmp_path)
    idx = build_index(capsys, tmp_path, data) if method == "dft" else learned_index(capsys, tmp_path, data)
    tree, _ = load_index(str(idx))
    outputs = []
    for source in (("--data", str(data)), ()):
        code, stdout, err = run(capsys, "query", "--index", str(idx), *source, "--query-id", "7", *how)
        assert code == 0, err
        outputs.append(stdout)
    assert outputs[0] == outputs[1]
    # the query point is the stored one: the answer is the tree's own, less the id itself
    q = tree.point(7)
    want = tree.top_k(q, 6).ids if how[0] == "--k" else tree.within_radius(q, 1.0 - 0.2).ids
    want = [i for i in want if i != 7][:5] if how[0] == "--k" else [i for i in want if i != 7]
    assert want and [h[0] for h in parse_hits(outputs[0])] == want


def test_query_id_the_index_holds_does_not_read_data(capsys, tmp_path, monkeypatch):
    data = gen_small(capsys, tmp_path)
    idx = build_index(capsys, tmp_path, data)

    def refuse(*args, **kwargs):
        raise AssertionError("load_csv called")

    monkeypatch.setattr("corrspace.datasets.load_csv", refuse)
    code, stdout, err = run(capsys, "query", "--index", str(idx), "--data", str(data), "--query-id", "3", "--k", "4")
    assert code == 0, err
    assert len(parse_hits(stdout)) == 4
    # --data is not read, but one that names no file is still an error
    for ghost in (tmp_path / "ghost.csv", tmp_path):
        code, stdout, err = run(capsys, "query", "--index", str(idx), "--data", str(ghost), "--query-id", "3")
        assert code == 23 and stdout == "" and "data file not found" in err


def test_query_id_the_index_lacks_answers_from_data(capsys, tmp_path):
    data = gen_small(capsys, tmp_path)
    split_path = tmp_path / "split.json"
    run(capsys, "split", "--data", str(data), "--output", str(split_path))
    idx = build_index(capsys, tmp_path, data, extra=("--split", str(split_path), "--partition", "train"))
    test_id = json.loads(split_path.read_text())["test_ids"][0]
    tree, _ = load_index(str(idx))
    assert tree.point(test_id) is None
    code, stdout, err = run(capsys, "query", "--index", str(idx), "--data", str(data), "--query-id", str(test_id), "--k", "5")
    assert code == 0, err
    ds = load_csv(str(data), "csv_id")
    q = DftTruncationEmbedder(8).embed_matrix(ds.normalized_matrix(ds.rows_for([test_id])))[0]
    assert [h[0] for h in parse_hits(stdout)] == list(tree.top_k(q, 5).ids)
    # neither --data nor the id in the index
    code, stdout, err = run(capsys, "query", "--index", str(idx), "--query-id", str(test_id))
    assert code == 2 and stdout == "" and f"does not hold id {test_id}" in err


def test_query_file_rows_answer_as_they_would_alone(capsys, tmp_path):
    # all rows are normalized in one call; each keeps the bits it has alone
    data = gen_small(capsys, tmp_path)
    idx = learned_index(capsys, tmp_path, data)
    ds = load_csv(str(data), "csv_id")
    rows = [ds.values[i] * scale for i, scale in ((2, 1.0), (5, 1e-3), (11, 7e5))]
    lines = [",".join(f"{v:.17g}" for v in row) + "\n" for row in rows]
    together = tmp_path / "all.csv"
    together.write_text("".join(lines))
    code, stdout, err = run(capsys, "query", "--index", str(idx), "--query-file", str(together), "--k", "6")
    assert code == 0, err
    blocks = stdout.split("# query ")[1:]
    for i, line in enumerate(lines):
        alone = tmp_path / f"one{i}.csv"
        alone.write_text(line)
        code, stdout, err = run(capsys, "query", "--index", str(idx), "--query-file", str(alone), "--k", "6")
        assert code == 0, err
        assert stdout.split("\n", 1)[1] == blocks[i].split("\n", 1)[1]


@pytest.mark.parametrize("case", ["query-file", "ingest", "held-id-data"])
def test_a_piped_input_answers_as_its_file(capsys, tmp_path, case):
    # the file goes to a fresh process's stdin, a pipe read as /dev/stdin; a
    # quoted field sends a file past numpy's pass to the loop
    data = gen_small(capsys, tmp_path)
    idx = build_index(capsys, tmp_path, data)
    lines = data.read_text().splitlines(keepends=True)
    if case == "query-file":
        rows = [line.split(",", 1)[1] for line in lines[:3]]
        path, text = tmp_path / "q.csv", '"' + rows[0].replace(",", '",', 1) + "".join(rows[1:])
        argv = ["query", "--index", str(idx), "--query-file", "{input}", "--k", "4"]
    elif case == "ingest":
        path, text = tmp_path / "raw.csv", '"' + lines[0].replace(",", '",', 1) + "".join(lines[1:])
        argv = ["ingest", "--input", "{input}", "--format", "csv_id", "--output", str(tmp_path / "{output}")]
    else:  # an id the index holds: --data is not read, but must name a file
        path, text = tmp_path / "d.csv", "".join(lines)
        argv = ["query", "--index", str(idx), "--data", "{input}", "--query-id", "5", "--k", "4"]
    path.write_text(text)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "corrspace.cli", *(a.format(input="/dev/stdin", output="piped.csv") for a in argv)],
        input=text, capture_output=True, text=True, env=env,
    )
    code, stdout, err = run(capsys, *(a.format(input=path, output="from-path.csv") for a in argv))
    assert (proc.returncode, proc.stderr) == (code, err) == (0, "")
    assert proc.stdout == stdout.replace(str(path), "/dev/stdin").replace("from-path.csv", "piped.csv")
    if case == "ingest":
        assert (tmp_path / "piped.csv").read_bytes() == (tmp_path / "from-path.csv").read_bytes()


@pytest.mark.parametrize("kind", ["missing", "directory"])
@pytest.mark.parametrize("what, argv", [
    ("data file", ("ingest", "--input", "{path}", "--output", "{tmp}/x.csv")),
    ("model file", ("bench", "--n", "100", "--model", "{path}")),
    ("index file", ("query", "--index", "{path}", "--query-id", "1")),
    ("split file", ("train", "--data", "{data}", "--m", "4", "--desk", "--split", "{path}", "--model-out", "{tmp}/m")),
    ("config file", ("gen", "--family", "example1", "--config", "{path}", "--output", "{tmp}/x.csv")),
    ("manifest", None),  # `replay_manifest`
])
def test_each_loader_names_a_missing_input_or_a_directory(capsys, tmp_path, what, argv, kind):
    data = gen_small(capsys, tmp_path)
    path = tmp_path / ("ghost" if kind == "missing" else "folder")
    if kind == "directory":
        path.mkdir()
    if argv is None:
        with pytest.raises(MissingArtifact) as exc:
            replay_manifest(str(path))
        code, stdout, err = exc.value.exit_code, "", f"error: {exc.value}\n"
    else:
        code, stdout, err = run(capsys, *(a.format(path=path, tmp=tmp_path, data=data) for a in argv))
    assert (code, stdout, err) == (23, "", f"error: {what} not found: {path}\n")


@pytest.mark.parametrize("argv", [
    ("query", "--index", "{tmp}", "--query-id", "1"),
    ("query", "--index", "{idx}", "--query-file", "{tmp}"),
    ("index", "--data", "{tmp}", "--m", "4", "--output", "{tmp}/x.idx"),
    ("ingest", "--input", "{tmp}", "--output", "{tmp}/x.csv"),
    # outputs, refused before any input is read
    ("gen", "--family", "example1", "--output", "{tmp}"),
    ("gen", "--family", "example1", "--output", "{tmp}/x.csv", "--manifest", "{tmp}"),
    ("train", "--data", "{data}", "--m", "4", "--desk", "--model-out", "{tmp}/m.chr1", "--log-out", "{tmp}"),
])
def test_directory_given_for_a_file_is_missing(capsys, tmp_path, argv):
    data = gen_small(capsys, tmp_path)
    idx = build_index(capsys, tmp_path, data)
    code, stdout, err = run(capsys, *(arg.format(tmp=tmp_path, idx=idx, data=data) for arg in argv))
    assert code == 23 and stdout == "" and "not found" in err


@pytest.mark.parametrize("flag", ["--log-out", "--manifest"])
def test_two_outputs_that_name_one_file_are_a_usage_error(capsys, tmp_path, flag):
    # the later write would replace the earlier: train's log, read back for
    # its summary, or the model under its manifest
    data = gen_small(capsys, tmp_path)
    out = tmp_path / "out"
    argv = ["train", "--data", str(data), "--m", "4", "--desk", "--iterations", "5", "--model-out", str(out)]
    code, stdout, err = run(capsys, *argv, flag, str(tmp_path / "." / "out"))
    assert (code, stdout) == (2, "") and f"--model-out and {flag} name the same file" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv", "data.csv.manifest.json"]
    # a file that keeps nothing may take more than one output
    code, _, err = run(capsys, *argv[:-1], os.devnull, "--log-out", os.devnull, "--manifest", str(tmp_path / "m.json"))
    assert code == 0, err


def test_output_in_a_missing_directory_fails_before_reading(capsys, tmp_path, monkeypatch):
    data = gen_small(capsys, tmp_path)
    monkeypatch.setattr("corrspace.datasets.load_csv", lambda *a, **k: pytest.fail("input read"))
    for argv in (
        ("ingest", "--input", str(data), "--output", str(tmp_path / "nodir" / "x.csv")),
        ("split", "--data", str(data), "--output", str(tmp_path / "nodir" / "s.json")),
        ("index", "--data", str(data), "--m", "4", "--output", str(tmp_path / "nodir" / "x.idx")),
        ("train", "--data", str(data), "--m", "4", "--model-out", str(tmp_path / "nodir" / "m.chr1")),
        ("eval", "--data", str(data), "--methods", "dft", "--report-out", str(tmp_path / "nodir" / "r.csv")),
        ("ingest", "--input", str(data), "--output", str(tmp_path / "x.csv"), "--manifest", str(tmp_path / "nodir" / "m.json")),
    ):
        code, stdout, err = run(capsys, *argv)
        assert code == 23 and stdout == "" and "output directory not found" in err, argv


def test_index_rejects_series_longer_than_the_model(capsys, tmp_path):
    # a model trained on length-16 series does not embed length-32 series
    model = tmp_path / "model.chr1"
    save_model(init_params(16, 8, 4, seed=0), model)
    data = gen_small(capsys, tmp_path, name="long.csv", length=32)
    code, stdout, err = run(
        capsys, "index", "--data", str(data), "--method", "learned-order", "--model", str(model),
        "--output", str(tmp_path / "long.idx"),
    )
    assert code == 14 and stdout == ""
    assert "32 != network 16" in err


# --------------------------------------------------------------------- eval

def test_eval_report_rows(capsys, tmp_path):
    data = gen_small(capsys, tmp_path)
    report = tmp_path / "report.csv"
    code, stdout, _ = run(
        capsys, "eval", "--data", str(data), "--methods", "exact,dft,downsample",
        "--m-values", "4,8", "--k-values", "2,5", "--no-timing", "--desk",
        "--report-out", str(report),
    )
    assert code == 0 and "report ->" in stdout
    lines = report.read_text().strip().splitlines()
    assert lines[0] == "method,m,k,rho,delta,approx_loss,q50_us,q99_us"
    # exact contributes one row per k; each baseline one per (m, k)
    assert len(lines) - 1 == 2 + 2 * 4
    assert sum(1 for l in lines if l.startswith("exact,0,")) == 2


def test_eval_no_timing_is_reproducible(capsys, tmp_path):
    data = gen_small(capsys, tmp_path)
    r1, r2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    for out in (r1, r2):
        code, _, _ = run(
            capsys, "eval", "--data", str(data), "--methods", "dft", "--m-values", "8",
            "--k-values", "3", "--no-timing", "--report-out", str(out),
        )
        assert code == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_eval_rejects_bad_methods(capsys, tmp_path):
    data = gen_small(capsys, tmp_path)
    code, _, err = run(
        capsys, "eval", "--data", str(data), "--methods", "psychic",
        "--report-out", str(tmp_path / "r.csv"),
    )
    assert code == 2 and "psychic" in err
    code, _, _ = run(
        capsys, "eval", "--data", str(data), "--methods", "",
        "--report-out", str(tmp_path / "r.csv"),
    )
    assert code == 2


@pytest.mark.parametrize("count", ["0", "-1"])
def test_eval_max_queries_below_one_is_a_usage_error(capsys, tmp_path, count):
    # as a slice bound, 0 would leave no query to score and -1 would drop the last one
    report = tmp_path / "r.csv"
    code, stdout, err = run(
        capsys, "eval", "--data", str(tmp_path / "absent.csv"), "--methods", "dft", "--max-queries", count,
        "--report-out", str(report),
    )
    assert code == 2 and stdout == "" and f"max_queries must be at least 1, got {count}" in err
    assert not report.exists()


@pytest.mark.parametrize("methods, flag, value", [
    ("dft", "--k-values", "0"),
    ("dft", "--k-values", "10,-3"),
    ("learned-order", "--m-values", "0"),
    ("dft,learned-approx", "--m-values", "4,-1"),
])
def test_eval_list_items_below_one_are_usage_errors(capsys, tmp_path, methods, flag, value):
    # refused before the data is read: the file does not exist
    report = tmp_path / "r.csv"
    code, stdout, err = run(
        capsys, "eval", "--data", str(tmp_path / "absent.csv"), "--methods", methods, flag, value,
        "--report-out", str(report),
    )
    assert code == 2 and stdout == "" and f"{flag} must be at least 1" in err
    assert not report.exists()


# --------------------------------------------------------------------- bench

@pytest.mark.parametrize("flag", ["--n", "--m", "--k", "--queries", "--hidden-size"])
def test_bench_sizes_below_one_are_usage_errors(capsys, tmp_path, flag):
    # refused before any work: the model is not loaded
    base = {"--n": "300", "--m": "4", "--k": "5", "--queries": "10", "--hidden-size": "16", flag: "0"}
    argv = [x for kv in base.items() for x in kv]
    code, stdout, err = run(capsys, "bench", *argv, "--length", "32", "--model", str(tmp_path / "absent.chr1"))
    assert code == 2 and stdout == "" and f"{flag} must be at least 1, got 0" in err


@pytest.mark.parametrize("argv, message", [
    ("gen --family example1 --n 0 --length 16 --output {tmp}/d.csv", "--n must be at least 1, got 0"),
    ("gen --family example1 --n -3 --length 16 --output {tmp}/d.csv", "--n must be at least 1, got -3"),
    ("gen --family example1 --seed -1 --output {tmp}/d.csv", "--seed must be at least 0, got -1"),
    ("gen --family example2 --m 2 --length 16 --eps nan --output {tmp}/d.csv", "--eps must be finite, got nan"),
    ("gen --family example2 --m 2 --length 16 --eps inf --output {tmp}/d.csv", "--eps must be finite, got inf"),
    ("split --data {tmp}/absent.csv --seed -1 --output {tmp}/s.json", "--seed must be at least 0, got -1"),
    ("eval --data {tmp}/absent.csv --methods dft --seed -1 --report-out {tmp}/r.csv", "--seed must be at least 0, got -1"),
    ("bench --n 50 --length 0 --model {tmp}/absent.chr1", "--length must be at least 2, got 0"),
    ("bench --n 50 --length 1 --model {tmp}/absent.chr1", "--length must be at least 2, got 1"),
    ("bench --n 50 --length -2 --model {tmp}/absent.chr1", "--length must be at least 2, got -2"),
    ("bench --n 50 --seed -1 --model {tmp}/absent.chr1 --report-out {tmp}/b.json", "--seed must be at least 0, got -1"),
    # above the u32 counts of the model and index headers, or the model's u64 seed: refused by the check alone
    (f"gen --family example1 --n {HUGE} --length 16 --output {{tmp}}/d.csv", f"--n must be at most {U32}, got {HUGE}"),
    (f"gen --family example1 --length {HUGE} --output {{tmp}}/d.csv", f"--length must be at most {U32}, got {HUGE}"),
    (f"gen --family example1 --seed {2**64} --output {{tmp}}/d.csv", f"--seed must be at most {U64}, got {2**64}"),
    (f"split --data {{tmp}}/absent.csv --seed {2**64} --output {{tmp}}/s.json", f"--seed must be at most {U64}"),
    (f"train --data {{tmp}}/absent.csv --m 4 --seed {2**64} --model-out {{tmp}}/m.chr1",
     f"--seed must be at most {U64}, got {2**64}"),
    (f"train --data {{tmp}}/absent.csv --m {U32 + 1} --model-out {{tmp}}/m.chr1", f"--m must be at most {U32}"),
    (f"train --data {{tmp}}/absent.csv --m 4 --hidden-size {HUGE} --model-out {{tmp}}/m.chr1",
     f"--hidden-size must be at most {U32}, got {HUGE}"),
    (f"train --data {{tmp}}/absent.csv --m 4 --batch-size {HUGE} --model-out {{tmp}}/m.chr1",
     f"--batch-size must be at most {U32}, got {HUGE}"),
    (f"eval --data {{tmp}}/absent.csv --methods learned-order --m-values 4,{HUGE} --report-out {{tmp}}/r.csv",
     f"--m-values must be at most {U32}, got {HUGE}"),
    (f"eval --data {{tmp}}/absent.csv --methods dft --seed {2**64} --report-out {{tmp}}/r.csv",
     f"--seed must be at most {U64}"),
    *((f"bench --{flag} {HUGE} --model {{tmp}}/absent.chr1", f"--{flag} must be at most {U32}, got {HUGE}")
      for flag in ("n", "m", "queries", "length", "hidden-size")),
    (f"bench --seed {2**64} --model {{tmp}}/absent.chr1", f"--seed must be at most {U64}"),
], ids=[
    "gen-n-0", "gen-n-negative", "gen-seed", "gen-eps-nan", "gen-eps-inf", "split-seed", "eval-seed",
    "bench-length-0", "bench-length-1", "bench-length-negative", "bench-seed",
    "gen-n-huge", "gen-length-huge", "gen-seed-2**64", "split-seed-2**64", "train-seed-2**64", "train-m-2**32",
    "train-hidden-size-huge", "train-batch-size-huge", "eval-m-values-huge", "eval-seed-2**64",
    "bench-n-huge", "bench-m-huge", "bench-queries-huge", "bench-length-huge", "bench-hidden-size-huge",
    "bench-seed-2**64",
])
def test_sizes_and_seeds_out_of_range_are_usage_errors(capsys, tmp_path, argv, message):
    # refused before any work: no input is read (none exists) and nothing is written
    code, stdout, err = run(capsys, *argv.format(tmp=tmp_path).split())
    assert code == 2 and stdout == "" and message in err
    assert list(tmp_path.iterdir()) == []


def test_limits_hold_for_config_and_manifest_values(capsys, tmp_path):
    # `_run` checks the resolved parameters, wherever they came from
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 2**64}))
    code, stdout, err = run(
        capsys, "gen", "--family", "example1", "--config", str(cfg), "--output", str(tmp_path / "d.csv")
    )
    assert code == 2 and stdout == "" and f"--seed must be at most {U64}" in err
    gen_small(capsys, tmp_path)
    manifest = tmp_path / "data.csv.manifest.json"
    doc = json.loads(manifest.read_text())
    manifest.write_text(json.dumps({**doc, "params": {**doc["params"], "n": HUGE}}))
    with pytest.raises(UsageError, match=f"--n must be at most {U32}, got {HUGE}"):
        replay_manifest(str(manifest))


def test_train_seed_at_the_u64_limit_is_stored(capsys, tmp_path):
    data = gen_small(capsys, tmp_path)
    model = tmp_path / "m.chr1"
    code, _, err = run(
        capsys, "train", "--data", str(data), "--m", "4", "--desk", "--iterations", "3", "--seed", str(U64),
        "--model-out", str(model),
    )
    assert code == 0, err
    assert load_model(str(model)).seed == U64


def test_bench_smoke_and_report(capsys, tmp_path):
    report = tmp_path / "bench.json"
    code, stdout, _ = run(
        capsys, "bench", "--n", "300", "--m", "4", "--k", "5", "--queries", "10",
        "--length", "32", "--hidden-size", "16", "--report-out", str(report),
    )
    assert code == 0
    assert "q50_us" in stdout and "build_ms" in stdout
    stats = json.loads(report.read_text())
    assert stats["n"] == 300 and stats["k"] == 5
    assert stats["q50_us"] > 0.0


def test_bench_report_records_the_models_m(capsys, tmp_path):
    # --m (default 16) sizes a fresh network only: a given model has its own width
    model = tmp_path / "model.chr1"
    save_model(init_params(32, 8, 4, seed=0), model)
    report = tmp_path / "bench.json"
    code, _, err = run(
        capsys, "bench", "--n", "100", "--k", "5", "--queries", "5", "--length", "32", "--model", str(model),
        "--report-out", str(report),
    )
    assert code == 0, err
    assert json.loads(report.read_text())["m"] == 4


def test_bench_prints_points_scanned(capsys, tmp_path):
    report = tmp_path / "bench.json"
    code, stdout, _ = run(
        capsys, "bench", "--n", "300", "--m", "4", "--k", "5", "--queries", "10",
        "--length", "32", "--hidden-size", "16", "--report-out", str(report),
    )
    assert code == 0
    printed = dict(line.split(" = ") for line in stdout.strip().splitlines())
    stats = json.loads(report.read_text())
    assert float(printed["scanned_q50"]) == stats["scanned_q50"]
    assert float(printed["refined_q50"]) == stats["refined_q50"]
    assert 5 <= float(printed["refined_q50"]) <= float(printed["scanned_q50"]) <= 300


def test_bench_manifest_without_report_is_a_usage_error(capsys, tmp_path):
    # without --report-out bench writes nothing a manifest could describe
    manifest = tmp_path / "bench.manifest.json"
    code, stdout, err = run(capsys, "bench", "--n", "300", "--m", "4", "--manifest", str(manifest))
    assert code == 2 and stdout == "" and "--report-out" in err
    assert not manifest.exists()


def test_query_takes_no_manifest(capsys, tmp_path):
    data = gen_small(capsys, tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["query", "--exact", "--data", str(data), "--query-id", "3", "--manifest", str(tmp_path / "q.json")])
    assert exc.value.code == 2


def test_bench_missing_model_exit_code(capsys, tmp_path):
    code, _, _ = run(capsys, "bench", "--n", "100", "--model", str(tmp_path / "ghost.bin"))
    assert code == 23


def test_model_that_is_a_directory_is_missing(capsys, tmp_path):
    data = gen_small(capsys, tmp_path)
    code, _, err = run(
        capsys, "index", "--data", str(data), "--method", "learned-order", "--model", str(tmp_path),
        "--output", str(tmp_path / "x"),
    )
    assert code == 23 and "model file not found" in err


# ------------------------------------------------------------ exit codes
# One test per README exit code that a CLI input reaches and no test above
# checks. 10 (constant series) is not reachable: `load_csv` drops constant
# rows by the same rule that raises it. Nor is 22: only the metrics raise it.

def test_invalid_m_exit_code(capsys, tmp_path):
    data = gen_small(capsys, tmp_path)
    code, _, err = run(capsys, "index", "--data", str(data), "--method", "dft", "--m", "3", "--output", str(tmp_path / "x"))
    assert code == 12 and "m=3" in err


def test_degenerate_network_output_exit_code(capsys, tmp_path):
    data = gen_small(capsys, tmp_path)
    model = tmp_path / "zero.chr1"  # every output is the origin
    save_model(NetworkParams(weights=[np.zeros((4, 16)), np.zeros((4, 4))], biases=[np.zeros(4), np.zeros(4)], seed=0), model)
    code, _, err = run(
        capsys, "index", "--data", str(data), "--method", "learned-order", "--model", str(model),
        "--output", str(tmp_path / "x"),
    )
    assert code == 13 and "near-zero norm" in err


def test_empty_partition_exit_code(capsys, tmp_path):
    data = gen_small(capsys, tmp_path)
    splits = tmp_path / "split.json"
    code, _, _ = run(capsys, "split", "--data", str(data), "--ratios", "1,0,0", "--output", str(splits))
    assert code == 0
    code, _, err = run(
        capsys, "index", "--data", str(data), "--split", str(splits), "--partition", "val",
        "--m", "4", "--output", str(tmp_path / "x"),
    )
    assert code == 15 and "zero points" in err


def test_empty_file_exit_code(capsys, tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    code, _, err = run(capsys, "ingest", "--input", str(empty), "--output", str(tmp_path / "out.csv"))
    assert code == 18 and "no data rows" in err


def test_too_small_to_split_exit_code(capsys, tmp_path):
    data = gen_small(capsys, tmp_path, n=5)
    code, _, err = run(capsys, "split", "--data", str(data), "--output", str(tmp_path / "split.json"))
    assert code == 19 and "got 5" in err


def test_too_few_training_rows_exit_code(capsys, tmp_path):
    data = gen_small(capsys, tmp_path)
    code, _, err = run(
        capsys, "train", "--data", str(data), "--ratios", "0.02,0.49,0.49", "--m", "4", "--desk",
        "--model-out", str(tmp_path / "m.chr1"),
    )
    assert code == 20 and "training series" in err


def test_eval_with_an_empty_test_partition_is_empty_input(capsys, tmp_path):
    data = gen_small(capsys, tmp_path)
    report = tmp_path / "r.csv"
    code, stdout, err = run(
        capsys, "eval", "--data", str(data), "--methods", "dft", "--m-values", "4", "--k-values", "3",
        "--ratios", "0.5,0.5,0", "--report-out", str(report),
    )
    assert (code, stdout, err) == (15, "", "error: the test partition holds no series to query\n")
    assert not report.exists()


def test_eval_with_one_test_series_is_empty_input(capsys, tmp_path):
    # one test series makes no pair to average approx_loss over
    data = gen_small(capsys, tmp_path, length=64)
    report = tmp_path / "r.csv"
    code, stdout, err = run(
        capsys, "eval", "--data", str(data), "--methods", "dft", "--m-values", "4", "--k-values", "3",
        "--ratios", "0.89,0.1,0.01", "--no-timing", "--report-out", str(report),
    )
    assert (code, stdout) == (15, "") and not report.exists()
    assert err == "error: the test partition holds one series: approx_loss needs a pair of them\n"


def test_k_larger_than_eval_pool_exit_code(capsys, tmp_path):
    data = gen_small(capsys, tmp_path)
    code, _, err = run(
        capsys, "eval", "--data", str(data), "--methods", "dft", "--m-values", "4", "--k-values", "500",
        "--no-timing", "--report-out", str(tmp_path / "r.csv"),
    )
    assert code == 21 and "k=500" in err


def test_train_config_out_of_range_is_a_usage_error(capsys, tmp_path):
    data = gen_small(capsys, tmp_path)
    code, _, err = run(capsys, "train", "--data", str(data), "--m", "0", "--desk", "--model-out", str(tmp_path / "m"))
    assert code == 2 and "must be positive" in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow of a diverging run
@pytest.mark.parametrize("rate, exit_code", [("nan", 2), ("inf", 2), ("1e300", 13)])
def test_train_writes_no_non_finite_model(capsys, tmp_path, rate, exit_code):
    # a non-finite rate is refused up front; a finite one that diverges
    # trains, and `save_model` refuses the result, so no model or manifest
    data = gen_small(capsys, tmp_path)
    model = tmp_path / "m.chr1"
    code, stdout, err = run(
        capsys, "train", "--data", str(data), "--m", "4", "--desk", "--iterations", "5", "--learning-rate", rate,
        "--model-out", str(model),
    )
    assert code == exit_code and stdout == "" and err.startswith("error: ")
    assert not model.exists() and not (tmp_path / "m.chr1.manifest.json").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow of a diverging run
def test_train_that_writes_no_model_leaves_no_log(capsys, tmp_path):
    data = gen_small(capsys, tmp_path)
    model = tmp_path / "m.chr1"
    code, _, err = run(
        capsys, "train", "--data", str(data), "--m", "4", "--desk", "--iterations", "50", "--learning-rate", "1e300",
        "--model-out", str(model),
    )
    assert code == 13 and "non-finite weight or bias" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv", "data.csv.manifest.json"]


# ------------------------------------------------------------ config file

def test_config_file_precedence(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 30, "length": 16}))
    # config value used when no flag given
    out1 = tmp_path / "c1.csv"
    code, _, _ = run(capsys, "gen", "--family", "example1", "--config", str(cfg), "--output", str(out1))
    assert code == 0 and load_csv(str(out1), "csv_id").n == 30
    # explicit flag beats the config file
    out2 = tmp_path / "c2.csv"
    code, _, _ = run(
        capsys, "gen", "--family", "example1", "--config", str(cfg), "--n", "20",
        "--output", str(out2),
    )
    assert code == 0 and load_csv(str(out2), "csv_id").n == 20


def test_config_unknown_key_rejected(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"frobnicate": 1}))
    code, _, err = run(capsys, "gen", "--family", "example1", "--config", str(cfg),
                       "--output", str(tmp_path / "x.csv"))
    assert code == 2 and "frobnicate" in err


@pytest.mark.parametrize("text", ["5", "[1, 2]", "{not json"])
def test_config_that_is_not_an_object_is_a_usage_error(capsys, tmp_path, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    code, _, err = run(capsys, "gen", "--family", "example1", "--config", str(cfg),
                       "--output", str(tmp_path / "x.csv"))
    assert code == 2 and "config file" in err


_GEN = ("gen", "--family", "example1", "--output", "{tmp}/out.csv")
_QUERY = ("query", "--exact", "--data", "{data}", "--query-id", "3")
_TRAIN = ("train", "--data", "{data}", "--m", "4", "--model-out", "{tmp}/m.chr1")
_SPLIT = ("split", "--output", "{tmp}/s.json")
_EVAL = ("eval", "--data", "{data}", "--report-out", "{tmp}/r.csv")


@pytest.mark.parametrize("argv, doc", [
    (_GEN, {"n": "5"}),  # a string where the flag parses an int
    (_GEN, {"n": True}),
    (_GEN, {"eps": [0.1]}),
    (_QUERY, {"k": "ten"}),
    (_QUERY, {"k": 2.5}),
    (_TRAIN, {"desk": "yes"}),  # a --desk/--no-desk flag takes a bool
    (_TRAIN, {"loss": "hinge"}),  # outside the flag's choices
    (_SPLIT, {"data": 5}),  # a flag without a type takes a string: open(5) would read descriptor 5
    (_TRAIN, {"model_out": ["m.chr1"]}),  # a list where the code reads no list
    (_SPLIT, {"ratios": 0.5}),  # nor a string or a list where the code reads a list
    (_EVAL, {"methods": {"dft": 1}}),
])
def test_config_values_get_the_checks_flags_get(capsys, tmp_path, argv, doc):
    data = gen_small(capsys, tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    argv = [arg.format(tmp=tmp_path, data=data) for arg in argv]
    code, stdout, err = run(capsys, *argv, "--config", str(cfg))
    key = next(iter(doc))
    assert code == 2 and stdout == "" and f"{key} = {json.dumps(doc[key])} is not a valid" in err


def test_config_values_of_the_flags_type_are_kept(capsys, tmp_path):
    data = gen_small(capsys, tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"desk": True, "iterations": 0, "learning_rate": 0.5, "loss": "order", "seed": None}))
    model = tmp_path / "m.chr1"
    code, _, err = run(capsys, "train", "--data", str(data), "--m", "4", "--config", str(cfg), "--model-out", str(model))
    assert code == 0, err
    params = json.loads((tmp_path / "m.chr1.manifest.json").read_text())["params"]
    assert (params["desk"], params["iterations"], params["learning_rate"], params["loss"]) == (True, 0, 0.5, "order")
    assert params["seed"] == 0  # null counts as absent


@pytest.mark.parametrize("argv, doc", [
    (_SPLIT, {"ratios": [0.8, "x", 0.1]}),
    (_SPLIT, {"ratios": [0.8, True, 0.1]}),
    (_SPLIT, {"ratios": [0.5, 0.5, 0.5]}),  # not summing to 1
    (_EVAL, {"methods": "dft", "m_values": [4.5]}),
    (_EVAL, {"methods": "dft", "k_values": ["ten"]}),
    (_EVAL, {"methods": "dft", "k_values": []}),  # an empty list
    (_EVAL, {"methods": []}),
])
def test_config_list_items_get_checked(capsys, tmp_path, argv, doc):
    data = gen_small(capsys, tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"data": str(data), **doc}))
    code, stdout, err = run(capsys, *(arg.format(tmp=tmp_path, data=data) for arg in argv), "--config", str(cfg))
    assert code == 2 and stdout == "" and "error:" in err


@pytest.mark.parametrize("flag, value", [
    ("--ratios", "a,b,c"), ("--ratios", "0.9,0.2,nan"), ("--m-values", "x"), ("--methods", ","),
])
def test_list_flags_that_do_not_parse_are_usage_errors(capsys, tmp_path, flag, value):
    data = gen_small(capsys, tmp_path)
    argv = ("eval", "--data", str(data), "--methods", "dft", "--report-out", str(tmp_path / "r.csv"), flag, value)
    code, stdout, err = run(capsys, *argv)
    assert code == 2 and stdout == "" and "error:" in err


@pytest.mark.parametrize("key, value, kind", [
    ("ratios", "bogus", "numbers"),
    ("ratios", [0.8, "x", 0.1], "numbers"),
    ("m_values", "x", "integers"),
    ("m_values", [4.5], "integers"),
    ("k_values", "10,ten", "integers"),
    ("k_values", ["ten"], "integers"),
], ids=["ratios-flag", "ratios-config", "m-values-flag", "m-values-config", "k-values-flag", "k-values-config"])
def test_a_list_that_does_not_parse_names_its_item_kind(capsys, tmp_path, key, value, kind):
    data = gen_small(capsys, tmp_path)
    argv = _SPLIT if key == "ratios" else (*_EVAL, "--methods", "dft")
    argv = [arg.format(tmp=tmp_path, data=data) for arg in argv] + ["--data", str(data)]
    if isinstance(value, str):  # as a flag
        argv += [_flag(key), value]
    else:  # as a --config list
        (tmp_path / "cfg.json").write_text(json.dumps({key: value}))
        argv += ["--config", str(tmp_path / "cfg.json")]
    code, stdout, err = run(capsys, *argv)
    assert (code, stdout) == (2, "")
    assert err == f"error: cannot read {json.dumps(value)} as a list of {kind}\n"


def test_config_lists_read_as_their_flags_do(capsys, tmp_path):
    data = gen_small(capsys, tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"data": str(data), "ratios": [0.6, 0.2, 0.2]}))
    code, _, err = run(capsys, "split", "--config", str(cfg), "--output", str(tmp_path / "a.json"))
    assert code == 0, err
    code, _, err = run(capsys, "split", "--data", str(data), "--ratios", "0.6,0.2,0.2", "--output", str(tmp_path / "b.json"))
    assert code == 0, err
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_parser_options_are_config_and_the_defaults_keys():
    # one flag per parameter key, in the defaults' order: nothing a config
    # file or manifest may set lacks a flag, and no flag is left unread
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(SUBCOMMANDS)
    for name, parser in sub.choices.items():
        options = [a.option_strings[0] for a in parser._actions if a.dest != "help"]
        expected = ["--config", *("--" + key.replace("_", "-") for key in SUBCOMMANDS[name][0])]
        assert options == expected, name


def test_shared_flags_agree():
    # config values are checked against the action of their destination in
    # any subcommand, so a destination that subcommands share must agree
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    seen = {}
    for parser in sub.choices.values():
        for action in parser._actions:
            kind = (type(action), action.type, action.choices)
            assert seen.setdefault(action.dest, kind) == kind, action.dest


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=8,
)
_SPLIT_LIKE = st.fixed_dictionaries(
    {key: _JSON | st.lists(st.integers(), max_size=4) for key in ("seed", "ratios", "train_ids", "val_ids", "test_ids")}
)


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=64) | (_JSON | _SPLIT_LIKE).map(lambda doc: json.dumps(doc).encode()))
def test_split_and_config_loaders_raise_only_typed_errors(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_bytes(doc)
        for load in (lambda: _load_split(path), lambda: _resolve(argparse.Namespace(config=path), GEN_DEFAULTS)):
            try:
                load()
            except CorrSpaceError:
                pass


# ------------------------------------------------- required flags, manifests

# a run of each subcommand that writes an artifact, every input given; {i}
# is the directory of its inputs, {o} that of its outputs
RUNS = {
    "gen": "gen --family example1 --n 60 --length 16 --output {o}/data.csv",
    "ingest": "ingest --input {i}/data.csv --format csv_id --output {o}/ingested.csv",
    "split": "split --data {i}/data.csv --output {o}/split.json",
    "train": "train --data {i}/data.csv --split {i}/split.json --m 4 --desk --iterations 5 --model-out {o}/model.chr1",
    "index": (
        "index --data {i}/data.csv --split {i}/split.json --partition train --method learned-order "
        "--model {i}/model.chr1 --output {o}/data.idx"
    ),
    "eval": "eval --data {i}/data.csv --methods dft --m-values 4 --k-values 2 --no-timing --report-out {o}/report.csv",
    "bench": (
        "bench --n 100 --m 4 --k 5 --queries 5 --length 16 --model {i}/model.chr1 --report-out {o}/bench.json"
    ),
}
REQUIRED = {
    "gen": ("family", "output"),
    "ingest": ("input", "output"),
    "split": ("data", "output"),
    "train": ("data", "model_out", "m"),
    "index": ("data", "output"),
    "eval": ("data", "report_out", "methods"),
}
# manifest inputs and outputs as {artifact: parameter key}
ARTIFACTS = {
    "gen": ({}, {"data": "output"}),
    "ingest": ({"raw": "input"}, {"data": "output"}),
    "split": ({"data": "data"}, {"split": "output"}),
    "train": ({"data": "data", "split": "split"}, {"model": "model_out", "log": "log_out"}),
    "index": ({"data": "data", "split": "split", "model": "model"}, {"index": "output"}),
    "eval": ({"data": "data"}, {"report": "report_out"}),
    "bench": ({"model": "model"}, {"report": "report_out"}),
}
REQUIRED_CASES = [(name, key) for name, keys in REQUIRED.items() for key in keys]


def run_argv(name, inputs, outputs):
    return RUNS[name].format(i=inputs, o=outputs).split()


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """The manifest of each run in RUNS, in order, all in one directory."""
    d = tmp_path_factory.mktemp("runs")
    manifests = {}
    for name in RUNS:
        argv = run_argv(name, d, d)
        assert main([*argv, "--manifest", f"{d}/{name}.manifest.json"]) == 0, argv
        manifests[name] = d / f"{name}.manifest.json"
    return manifests


def test_subcommands_declare_required_flags_and_artifacts():
    assert {name: spec.required for name, spec in SUBCOMMANDS.items() if spec.required} == REQUIRED
    assert {name: (spec.inputs, spec.outputs) for name, spec in SUBCOMMANDS.items() if spec.outputs} == ARTIFACTS


@pytest.mark.parametrize("name", list(ARTIFACTS))
def test_manifest_records_the_declared_artifacts(runs, name):
    doc = json.loads(runs[name].read_text())
    for recorded, declared in zip((doc["inputs"], doc["outputs"]), ARTIFACTS[name]):
        assert recorded.keys() == declared.keys()
        for artifact, key in declared.items():
            path = doc["params"][key]
            assert recorded[artifact] == {"path": path, "sha256": hashlib.sha256(Path(path).read_bytes()).hexdigest()}


@pytest.mark.parametrize("value", [None, ""])
@pytest.mark.parametrize("name, key", REQUIRED_CASES)
def test_a_required_flag_unset_or_empty_is_a_usage_error(capsys, tmp_path, runs, name, key, value):
    # the inputs exist: only the missing flag stops the run before it writes
    argv = run_argv(name, runs[name].parent, tmp_path)
    at = argv.index("--" + key.replace("_", "-"))
    argv[at:at + 2] = [] if value is None else [argv[at], value]
    try:
        code = main([*argv, "--manifest", str(tmp_path / "run.manifest.json")])
    except SystemExit as exc:  # argparse refuses an empty --m or --family itself
        code = exc.code
    assert code == 2 and capsys.readouterr().out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", [None, ""])
@pytest.mark.parametrize("name, key", REQUIRED_CASES)
def test_replay_without_a_required_param_is_a_usage_error(capsys, tmp_path, runs, name, key, value):
    doc = json.loads(runs[name].read_text())
    params = dict(doc["params"])
    for out in ARTIFACTS[name][1].values():  # outputs go to an empty directory
        params[out] = str(tmp_path / Path(params[out]).name)
    params[key] = value
    params["manifest"] = str(tmp_path / "run.manifest.json")
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps({**doc, "params": params}))
    with pytest.raises(UsageError):
        replay_manifest(str(edited))
    assert capsys.readouterr().out == ""
    assert [p.name for p in tmp_path.iterdir()] == ["edited.json"]


# ------------------------------------------------------------------- replay

def test_replay_train_manifest_bit_identical(capsys, tmp_path):
    data = gen_small(capsys, tmp_path)
    model = tmp_path / "model.bin"
    code, _, _ = run(
        capsys, "train", "--data", str(data), "--m", "4", "--desk",
        "--iterations", "80", "--model-out", str(model),
    )
    assert code == 0
    before = model.read_bytes()
    assert replay_manifest(str(tmp_path / "model.bin.manifest.json")) == 0
    capsys.readouterr()
    assert model.read_bytes() == before


@pytest.fixture
def eval_manifest(capsys, tmp_path):
    data = gen_small(capsys, tmp_path)
    code, _, err = run(
        capsys, "eval", "--data", str(data), "--methods", "dft", "--m-values", "4",
        "--k-values", "2", "--no-timing", "--report-out", str(tmp_path / "report.csv"),
    )
    assert code == 0, err
    return tmp_path / "report.csv.manifest.json"


def test_replay_eval_manifest_bit_identical(capsys, eval_manifest):
    report = eval_manifest.parent / "report.csv"
    before = report.read_bytes()
    assert replay_manifest(str(eval_manifest)) == 0
    capsys.readouterr()
    assert report.read_bytes() == before


def test_replay_detects_changed_inputs(eval_manifest):
    data = eval_manifest.parent / "data.csv"
    data.write_text(data.read_text() + "999," + ",".join(["1.5"] * 15) + ",2.5\n")
    with pytest.raises(MissingArtifact):
        replay_manifest(str(eval_manifest))


def _edited(doc, key, value):
    return {**doc, key: value}


@pytest.mark.parametrize("edit, error", [
    (lambda doc: "{not json", CorruptArtifact),
    (lambda doc: [doc], CorruptArtifact),  # not an object
    (lambda doc: _edited(doc, "subcommand", "frobnicate"), CorruptArtifact),
    (lambda doc: _edited(doc, "subcommand", ["eval"]), CorruptArtifact),
    (lambda doc: {k: v for k, v in doc.items() if k != "subcommand"}, CorruptArtifact),
    (lambda doc: _edited(doc, "params", ["dft"]), CorruptArtifact),
    (lambda doc: _edited(doc, "inputs", None), CorruptArtifact),
    (lambda doc: _edited(doc, "inputs", {"data": {"path": doc["inputs"]["data"]["path"]}}), CorruptArtifact),
    (lambda doc: _edited(doc, "inputs", {"data": {**doc["inputs"]["data"], "path": 5}}), CorruptArtifact),
    (lambda doc: _edited(doc, "inputs", {"data": {**doc["inputs"]["data"], "path": "ghost.csv"}}), MissingArtifact),
    (lambda doc: _edited(doc, "params", {**doc["params"], "seed": "5"}), UsageError),  # as --config refuses it
    (lambda doc: _edited(doc, "params", {**doc["params"], "timing": "no"}), UsageError),
    (lambda doc: _edited(doc, "params", {**doc["params"], "frobnicate": 1}), UsageError),
])
def test_replay_of_a_broken_manifest_raises_a_typed_error(capsys, eval_manifest, edit, error):
    doc = edit(json.loads(eval_manifest.read_text()))
    eval_manifest.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    report = eval_manifest.parent / "report.csv"
    before = report.read_bytes()
    with pytest.raises(error) as exc:
        replay_manifest(str(eval_manifest))
    assert type(exc.value) is error
    assert report.read_bytes() == before and capsys.readouterr().out == ""  # refused before the command ran


def test_replay_param_errors_read_as_config_errors(eval_manifest):
    doc = json.loads(eval_manifest.read_text())
    eval_manifest.write_text(json.dumps(_edited(doc, "params", {**doc["params"], "seed": "5"})))
    with pytest.raises(UsageError, match=f'manifest {eval_manifest}: seed = "5" is not a valid --seed'):
        replay_manifest(str(eval_manifest))


def test_a_pipe_or_device_is_recorded_without_a_digest(capsys, tmp_path):
    # a piped input is drained and /dev/null keeps nothing, so neither has
    # bytes to hash once the run is over: the manifest records a null sha256,
    # and a replay refuses the piped input rather than calling it missing
    data = gen_small(capsys, tmp_path)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    out = tmp_path / "piped.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "corrspace.cli", "ingest", "--input", "/dev/stdin", "--format", "csv_id",
         "--output", str(out)],
        input=data.read_text(), capture_output=True, text=True, env=env,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    manifest = tmp_path / "piped.csv.manifest.json"
    doc = json.loads(manifest.read_text())
    assert doc["inputs"] == {"raw": {"path": "/dev/stdin", "sha256": None}}
    assert doc["outputs"] == {"data": {"path": str(out), "sha256": hashlib.sha256(out.read_bytes()).hexdigest()}}
    with pytest.raises(Unreplayable) as exc:
        replay_manifest(str(manifest))
    assert exc.value.exit_code == 27
    assert str(exc.value) == (
        f"input raw of manifest {manifest} was read from a pipe or device and cannot be replayed: /dev/stdin"
    )
    model = tmp_path / "model.bin"
    code, _, err = run(
        capsys, "train", "--data", str(data), "--m", "4", "--desk",
        "--iterations", "5", "--model-out", str(model), "--log-out", os.devnull,
    )
    assert (code, err) == (0, "")
    doc = json.loads((tmp_path / "model.bin.manifest.json").read_text())
    assert doc["outputs"]["log"] == {"path": os.devnull, "sha256": None}
    before = model.read_bytes()
    assert replay_manifest(str(tmp_path / "model.bin.manifest.json")) == 0  # only inputs are checked
    assert model.read_bytes() == before


def test_replay_of_a_missing_manifest(tmp_path):
    with pytest.raises(MissingArtifact, match="manifest not found"):
        replay_manifest(str(tmp_path / "ghost.manifest.json"))


# ------------------------------------------------------------- entry point

def test_installed_entry_point():
    proc = subprocess.run(
        [sys.executable, "-c", "import corrspace.cli, sys; sys.exit(corrspace.cli.main(['--version']))"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "corrspace" in proc.stdout


# One parse, by the parser of argv[0]'s subcommand alone when it names one,
# must answer every argv as the parser of all eight subcommands does: the
# same bytes and exit code for help and errors, the same namespace otherwise.
HAND_PICKED_ARGV = [
    *([name, "-h"] for name in SUBCOMMANDS),
    ["query", "--help"],
    ["query", "--he"],  # an abbreviation of --help
    ["gen", "--n", "x"],  # a bad type
    ["query", "--index", "i", "--bogus"],  # an unknown flag
    ["index", "--method", "pca"],  # not a choice
    ["query", "--k"],  # no value
    ["query", "--version"],  # a flag of the top level only
    ["train", "extra"],  # a stray positional
    [], ["-h"], ["--version"], ["nope"], ["--version", "query"],
]


def argv_forms():
    """The hand-picked argv, then these: for each subcommand, help, a stray
    positional, an unknown flag and a flag of the top level; for each flag it
    takes, the flag without a value, with a bad one, with a good one, its
    abbreviation, a repeat and its --no- form; and argv naming no subcommand."""
    forms = [*HAND_PICKED_ARGV, ["--help"], ["-x"], ["quer"], ["--", "query"], ["-h", "query"], ["--version", "nope"]]
    for name in SUBCOMMANDS:
        forms += [[name], [name, "--he"], [name, "a", "b"], [name, "-x"], [name, "--version"]]
        for key in ("config", *SUBCOMMANDS[name].defaults):
            spec, option = FLAGS[key], _flag(key)
            if spec.get("action") is argparse.BooleanOptionalAction:
                good, bad = [], ["v"]  # a value is a stray positional
            else:  # not a choice, not a number; a string flag refuses only what looks like a flag
                good, bad = [good_value(spec)], ["nope" if "choices" in spec else "x" if "type" in spec else "-x"]
            forms += [
                [name, option], [name, option, *bad], [name, option, *good], [name, option[:-1], *good],
                [name, option, *good, option, *good], [name, "--no-" + option[2:], *good],
            ]
    unique = {" ".join(argv): argv for argv in forms}  # each form once, so the first ones keep their ids
    return list(unique.values())


def good_value(spec):
    """A value that the flag of argparse keywords `spec` takes."""
    return spec["choices"][-1] if "choices" in spec else {int: "3", float: "0.5"}.get(spec.get("type"), "v")


def exit_of(capsys, call):
    with pytest.raises(SystemExit) as exc:
        call()
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


@pytest.fixture(scope="module")
def full_parser():
    """All eight subparsers, built once: each call formats its help and usage at the width of that call."""
    return build_parser()


@pytest.mark.parametrize("argv", argv_forms(), ids=lambda argv: " ".join(argv) or "no-argv")
def test_argv_refused_or_helped_answers_as_the_full_parser(capsys, monkeypatch, full_parser, argv):
    for columns in ("30", "200"):  # help and usage lines wrap at the terminal's width
        monkeypatch.setenv("COLUMNS", columns)
        try:
            want = vars(full_parser.parse_args(argv))
        except SystemExit as exc:
            want = (exc.code, *capsys.readouterr())
            assert exit_of(capsys, lambda: main(argv)) == want, columns
        else:
            assert vars(_parse(argv)) == want, columns


def test_usage_lists_every_subcommand_and_errors_name_the_argument(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")  # the usage on one line
    usage = "usage: corrspace [-h] [--version] {gen,ingest,split,train,index,query,eval,bench} ...\n"
    code, _, err = exit_of(capsys, lambda: main(["query", "--version"]))  # parsed by query's parser alone
    assert code == 2 and err == usage + "corrspace: error: unrecognized arguments: --version\n"
    assert exit_of(capsys, lambda: main([]))[2].endswith("error: the following arguments are required: subcommand\n")
    assert "error: argument subcommand: invalid choice: 'nope'" in exit_of(capsys, lambda: main(["nope"]))[2]


def every_flag(name):
    """argv giving subcommand `name` each flag it takes, with a value its type and choices accept."""
    argv = [name]
    for key in ("config", *SUBCOMMANDS[name].defaults):
        flag = FLAGS[key]
        if flag.get("action") is argparse.BooleanOptionalAction:
            argv.append(_flag(key).replace("--", "--no-"))
        else:
            argv += [_flag(key), good_value(flag)]
    return argv


@pytest.mark.parametrize("name", list(SUBCOMMANDS))
def test_one_subcommand_parse_gives_the_full_parsers_namespace(monkeypatch, name):
    seed = ["--seed", "-1"] if "seed" in SUBCOMMANDS[name].defaults else []  # a value that looks like a flag
    add_parser = argparse._SubParsersAction.add_parser
    for argv in ([name], every_flag(name), [name, "--config=c", *seed]):
        want = vars(build_parser().parse_args(argv))
        built = []
        with monkeypatch.context() as patch:
            patch.setattr(
                argparse._SubParsersAction, "add_parser",
                lambda self, sub, **kwargs: built.append(sub) or add_parser(self, sub, **kwargs),
            )
            assert vars(_parse(argv)) == want, argv
        assert built == [name], argv


def test_every_command_is_a_cli_attribute():
    # `query` is defined in `cli`, the others in `commands`, reached through
    # `cli`'s module `__getattr__` so that a wrapper set on either is called
    from corrspace import commands

    assert cli.cmd_query.__module__ == "corrspace.cli"
    for name in set(SUBCOMMANDS) - {"query"}:
        assert getattr(cli, f"cmd_{name}") is getattr(commands, f"cmd_{name}")
    with pytest.raises(AttributeError, match="has no attribute 'cmd_nope'"):
        cli.cmd_nope


def test_python_m_matches_in_process_main(capsys, tmp_path):
    idx = build_index(capsys, tmp_path, gen_small(capsys, tmp_path))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    for argv, code in (
        (["query", "--index", str(idx), "--query-id", "3", "--k", "5"], 0),
        (["query", "--index", str(tmp_path / "absent.idx"), "--query-id", "3"], 23),
        (["query", "--index", str(idx), "--bogus"], 2),
    ):
        proc = subprocess.run([sys.executable, "-m", "corrspace.cli", *argv], capture_output=True, text=True, env=env)
        try:
            got = main(argv)
        except SystemExit as exc:
            got = exc.code
        captured = capsys.readouterr()
        assert (proc.returncode, proc.stdout, proc.stderr) == (got, captured.out, captured.err), argv
        assert got == code


def test_main_leaves_the_collector_as_it_was(capsys, tmp_path):
    # `main` runs in-process for tests and `replay_manifest`; only `run` freezes
    idx = build_index(capsys, tmp_path, gen_small(capsys, tmp_path))
    before = gc.get_freeze_count()
    code, _, err = run(capsys, "query", "--index", str(idx), "--query-id", "3")
    assert code == 0, err
    assert gc.get_freeze_count() == before


def test_run_exits_with_mains_code_and_runs_atexit_handlers(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    code = (
        "import atexit, gc, sys\n"
        "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n"
        f"sys.argv = ['corrspace', 'query', '--index', {str(tmp_path / 'absent.idx')!r}, '--query-id', '1']\n"
        "from corrspace.cli import run\n"
        "run()\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 23 and proc.stdout == "frozen True\n"
    assert proc.stderr == f"error: index file not found: {tmp_path / 'absent.idx'}\n"
