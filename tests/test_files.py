"""Every artifact is written through `files.atomic_write`: a temporary file
in the output's directory, moved over the output when it is whole. A save
that fails midway leaves neither the output nor the temporary file, and a
file already at the output path keeps its bytes.
"""

import os

import numpy as np
import pytest

from corrspace import commands, files
from corrspace.cli import Subcommand
from corrspace.datasets import Dataset, SplitDataset, save_csv
from corrspace.embed import save_model
from corrspace.evaluation import EvalReport
from corrspace.index import KdTree, save_index
from corrspace.train import desk_config, init_params, train

DS = Dataset(ids=np.arange(12), values=np.random.default_rng(3).standard_normal((12, 16)))
SPLITS = SplitDataset(np.arange(8), np.arange(8, 10), np.arange(10, 12), seed=0, ratios=(0.8, 0.1, 0.1))
TREE = KdTree(np.random.default_rng(5).standard_normal((40, 3)))

# each artifact's writer, given its output path
SAVERS = {
    "csv": lambda path: save_csv(DS, path),
    "model": lambda path: save_model(init_params(16, 4, 3, seed=1), path),
    "index": lambda path: save_index(TREE, path, {"method": "dft", "m": 3}),
    "learned index": lambda path: save_index(TREE, path, {"method": "learned-order", "m": 3},
                                             init_params(16, 4, 3, seed=1)),
    "split": lambda path: commands._save_split(SPLITS, path),
    "training log": lambda path: train(DS, SPLITS, desk_config(m=3, iterations=2), log_path=path),
    "report": lambda path: EvalReport().save_csv(path),
    "manifest": lambda path: commands.write_manifest(path, "gen", Subcommand({}, "no artifacts"), {"n": 3}),
}


class _FailingWrites:
    """A file whose first write stops halfway and raises, as a full disk would."""

    def __init__(self, fh):
        self._fh = fh

    def write(self, data):
        self._fh.write(data[: len(data) // 2])
        raise OSError(28, "No space left on device")

    def writelines(self, lines):
        for line in lines:
            self.write(line)

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self._fh.__exit__(*exc)


@pytest.mark.parametrize("saver", list(SAVERS.values()), ids=list(SAVERS))
def test_a_save_failing_midway_leaves_no_file(tmp_path, monkeypatch, saver):
    real_open = open
    monkeypatch.setattr(files, "open", lambda *a, **k: _FailingWrites(real_open(*a, **k)), raising=False)
    out = tmp_path / "out"
    with pytest.raises(OSError, match="No space left"):
        saver(out)
    assert list(tmp_path.iterdir()) == []
    out.write_bytes(b"before")
    with pytest.raises(OSError, match="No space left"):
        saver(out)
    assert list(tmp_path.iterdir()) == [out] and out.read_bytes() == b"before"


@pytest.mark.parametrize("saver", list(SAVERS.values()), ids=list(SAVERS))
def test_a_save_writes_only_its_output(tmp_path, saver):
    out = tmp_path / "out"
    out.write_bytes(b"before")
    saver(out)
    assert list(tmp_path.iterdir()) == [out] and out.read_bytes() != b"before"


def test_a_path_that_is_no_regular_file_is_written_in_place(tmp_path):
    # /dev/null stays the device: it is not replaced by a file
    with files.atomic_write(os.devnull) as fh:
        fh.write("gone")
    assert not os.path.isfile(os.devnull)

