"""Seeded fuzz of the command line. For every subcommand, a run that
succeeds (`BASE`) has up to three of its parameters redrawn from what
`cli.FLAGS` allows, or dropped, and is given as argv, as a `--config` file or
as a replayed manifest's params, then run in-process on a small corpus.
Every run must end in 0 or a documented exit code (the `exit_code` of a
`CorrSpaceError`); nothing but argparse's `SystemExit` may escape. A
manifest of such a run whose structure is broken must end in a documented
exit code other than 0.

Sizes come from small ranges, or lie just past their subcommand's
`SUBCOMMANDS[name].limits`, which are refused before any work. A size that
passes its limit and is large (`--n 4294967295`) would really allocate, so
none is drawn, and no size is left to a default such as `train`'s 10 000
iterations. `eval` is given no learned method: it would train one with at
least 2 000 iterations.
"""

import contextlib
import io
import json
import math
import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from corrspace import errors
from corrspace.cli import FLAGS, SUBCOMMANDS, U64, main, replay_manifest
from corrspace.commands import file_sha256
from corrspace.errors import CorrSpaceError, flag
from corrspace.index import load_index, save_index

EXIT_CODES = {0} | {
    cls.exit_code for cls in vars(errors).values()
    if isinstance(cls, type) and issubclass(cls, CorrSpaceError) and cls is not CorrSpaceError
}

# the largest value drawn for each size; below 1 is drawn too
SMALL = {
    "n": 300, "length": 64, "m": 20, "batch_size": 64, "iterations": 20, "hidden_size": 32,
    "k": 30, "queries": 20, "max_queries": 20,
}
INPUTS = ("input", "data", "split", "model", "index", "query_file")
OUTPUTS = ("output", "model_out", "log_out", "report_out", "manifest")
FLOATS = (0.0, -0.5, 0.01, 0.5, 1.0, 2.0, 1e300, math.nan, math.inf, -math.inf)


# a run of each subcommand that succeeds; "{name}" is a file of the `corpus` fixture
BASE = {
    "gen": {"family": "example1", "n": 60, "length": 16, "m": 4, "output": "{out}/a"},
    "ingest": {"input": "{data}", "format": "csv_id", "output": "{out}/a"},
    "split": {"data": "{data}", "ratios": "0.8,0.1,0.1", "output": "{out}/a"},
    "train": {"data": "{data}", "split": "{split}", "loss": "order", "m": 4, "desk": True, "batch_size": 16,
              "iterations": 5, "hidden_size": 8, "model_out": "{out}/a"},
    "index": {"data": "{data}", "method": "learned-order", "m": 4, "model": "{model}", "output": "{out}/a"},
    "query": {"index": "{learned}", "query_id": 3, "k": 5},
    "eval": {"data": "{data}", "methods": ["exact", "dft"], "m_values": [4], "k_values": [3], "max_queries": 5,
             "timing": False, "report_out": "{out}/a"},
    "bench": {"n": 100, "m": 4, "k": 5, "queries": 5, "length": 16, "hidden_size": 8, "report_out": "{out}/a"},
}


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """{name: path} of the files an input flag is given: a dataset, its
    split, a model, a dft and a learned index, a version-1 and a learned
    version-2 index, which `query` refuses, a query file, a garbage file, a
    directory, a missing path; and `out`, the outputs' directory, and
    `work`, where a drawn config file or manifest is written."""
    d = tmp_path_factory.mktemp("fuzz")
    names = ("data.csv", "split.json", "model.chr1", "dft.cix1", "learned.cix1", "v1.cix1", "v2.cix1", "queries.csv",
             "garbage.bin", "dir", "absent", "out")
    corpus = {name.split(".")[0]: str(d / name) for name in names}
    for argv in (
        "gen --family example1 --n 60 --length 16 --output {data}",
        "split --data {data} --output {split}",
        "train --data {data} --m 4 --desk --iterations 5 --hidden-size 8 --model-out {model}",
        "index --data {data} --method dft --m 4 --output {dft}",
        "index --data {data} --method learned-order --model {model} --output {learned}",
    ):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv.format(**corpus).split()) == 0, argv
    dft = (d / "dft.cix1").read_bytes()
    (d / "v1.cix1").write_bytes(dft[:4] + struct.pack("<I", 1) + dft[8:])
    tree, meta = load_index(corpus["learned"])
    save_index(tree, corpus["v2"], meta)  # the learned index without its model
    for name in ("v1", "v2"):
        with contextlib.redirect_stderr(io.StringIO()):
            assert main(["query", "--index", corpus[name], "--query-id", "3"]) == 24, name
    rows = (d / "data.csv").read_text().splitlines()[:3]
    (d / "queries.csv").write_text("".join(row.split(",", 1)[1] + "\n" for row in rows))
    (d / "garbage.bin").write_bytes(b"\x00\xffCHR1CIX1,1,2\n")
    (d / "dir").mkdir()
    (d / "out").mkdir()
    return {**corpus, "work": d}


def values(name, key, corpus):
    """A strategy of one value of `key` for subcommand `name`, as JSON gives it."""
    spec = FLAGS[key]
    low, high = SUBCOMMANDS[name].limits.get(key, (None, None))
    past = ([] if low is None else [low - 1]) + ([] if high is None else [high + 1])
    if spec.get("action") is not None:  # --x/--no-x
        return st.booleans()
    if "choices" in spec:
        return st.sampled_from([*spec["choices"], "bogus"])
    if key in SMALL:
        return st.integers(-1, SMALL[key]) | st.sampled_from(past or [0])
    if key == "seed":
        return st.sampled_from([0, 1, U64, *past])
    if key == "query_id":
        return st.integers(-2, 70) | st.sampled_from([2**63 - 1, -(2**63), 2**63, -(2**63) - 1, 2**70])
    if spec.get("type") is float:
        return st.sampled_from(FLOATS)
    if key in INPUTS:
        names = ("data", "split", "model", "dft", "learned", "v1", "v2", "queries", "garbage", "dir", "absent")
        return st.sampled_from([corpus[name] for name in names] + [""])
    if key in OUTPUTS:
        out = corpus["out"]
        return st.sampled_from([f"{out}/a", f"{out}/b.csv", out, f"{out}/absent/x", ""])
    if key == "ratios":
        return st.sampled_from(["0.8,0.1,0.1", "0.5,0.5,0", "1,0,0", "0.6,0.2,0.2", "0.5,0.5,0.5", "a,b,c", ",", ""])
    if key == "methods":
        return st.lists(st.sampled_from(["exact", "dft", "downsample", "psychic", ""]), max_size=3)
    if key in ("m_values", "k_values"):
        return st.lists(st.integers(-1, 20 if key == "m_values" else 30), max_size=3)
    raise AssertionError(f"no values drawn for {flag(key)}")


def as_argv(key, value):
    if isinstance(value, bool):
        return [flag(key) if value else flag(key).replace("--", "--no-")]
    if isinstance(value, list):
        return [flag(key), ",".join(map(str, value))]
    return [flag(key), repr(value) if isinstance(value, float) else str(value)]


def base(name, corpus):
    return {key: value.format(**corpus) if isinstance(value, str) else value for key, value in BASE[name].items()}


@st.composite
def runs(draw, name, corpus):
    """(params, how): `BASE[name]` with up to three parameters redrawn or
    dropped (never a size), given as argv, in a --config file or as a
    manifest's params."""
    params = base(name, corpus)
    for key in draw(st.sets(st.sampled_from(list(SUBCOMMANDS[name].defaults)), max_size=3)):
        value = draw(values(name, key, corpus) if key in SMALL else st.none() | values(name, key, corpus))
        if value is None:
            params.pop(key, None)
        else:
            params[key] = value
    how = draw(st.sampled_from(["argv", "config", "manifest"]))
    if how != "argv" and params:  # JSON may give a value of the wrong type: "5" for 5
        for key in draw(st.sets(st.sampled_from(sorted(params)), max_size=1)):
            params[key] = str(params[key])
    return params, how


def outcome(name, params, how, work):
    """The exit code of one run, or argparse's SystemExit code."""
    if how == "argv":
        argv = [name, *(arg for key, value in params.items() for arg in as_argv(key, value))]
    else:
        doc = params if how == "config" else {"subcommand": name, "params": params, "inputs": {}}
        path = f"{work}/{how}.json"
        with open(path, "w") as fh:
            json.dump(doc, fh)
        argv = [name, "--config", path]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            if how == "manifest":
                return replay_manifest(f"{work}/manifest.json")
            return main(argv)
        except CorrSpaceError as exc:  # `replay_manifest` raises; `main` returns the code
            assert how == "manifest", exc
            return exc.exit_code
        except SystemExit as exc:
            assert how == "argv", exc
            return ("SystemExit", exc.code)


@pytest.mark.parametrize("name", list(SUBCOMMANDS))
def test_every_drawn_run_ends_in_a_documented_exit_code(corpus, name):
    @settings(max_examples=25, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(runs(name, corpus))
    def check(run):
        params, how = run
        code = outcome(name, params, how, corpus["work"])
        assert code in EXIT_CODES or code == ("SystemExit", 2), (params, how, code)

    check()


# what a broken manifest puts where it breaks one part; `GONE` drops the part
GONE = "(gone)"
JUNK = (GONE, None, 0, 2.5, True, "", "bogus", [], ["query"], {"path": 1})


@st.composite
def broken_manifests(draw, corpus):
    """A manifest of a `BASE` run, with its inputs hashed, and one part of its
    structure broken: the document, its subcommand, params or inputs, an
    input entry or its path or sha256 replaced by a value of the wrong type
    or dropped, or an input's digest wrong."""
    name = draw(st.sampled_from(list(SUBCOMMANDS)))
    params = base(name, corpus)
    inputs = {artifact: {"path": params[key], "sha256": file_sha256(params[key])}
              for artifact, key in SUBCOMMANDS[name].inputs.items() if key in params}
    doc = {"subcommand": name, "params": params, "inputs": inputs}
    part = draw(st.sampled_from(["document", "subcommand", "params", "inputs", "entry", "path", "sha256", "digest"]))
    # a manifest that records fewer inputs is whole: the document and an entry are replaced, never dropped
    junk = st.sampled_from(JUNK[1:] if part in ("document", "entry") else JUNK)
    if part == "document":
        return draw(junk)
    parent, key = doc, part
    if part not in doc:  # an entry of the run's own inputs, or one more
        artifact = draw(st.sampled_from([*inputs, "extra"]))
        entry = inputs.setdefault(artifact, {"path": corpus["data"], "sha256": file_sha256(corpus["data"])})
        parent, key = (inputs, artifact) if part == "entry" else (entry, "sha256" if part == "digest" else part)
    if part == "digest":  # one hex digit changed
        at, digest = draw(st.integers(0, 63)), parent[key]
        parent[key] = digest[:at] + "0f"[digest[at] == "0"] + digest[at + 1 :]
    elif (value := draw(junk)) == GONE:
        del parent[key]
    else:
        parent[key] = value
    return doc


def test_every_broken_manifest_ends_in_a_documented_exit_code(corpus):
    @settings(max_examples=60, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(broken_manifests(corpus))
    def check(doc):
        path = f"{corpus['work']}/broken.json"
        with open(path, "w") as fh:
            json.dump(doc, fh)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            with pytest.raises(CorrSpaceError) as exc:
                replay_manifest(path)
        assert exc.value.exit_code in EXIT_CODES - {0}, (doc, exc.value)

    check()
