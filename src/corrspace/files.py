"""Artifact files: one way to write one, and one way to write or read a JSON one.

`atomic_write` gives every saved artifact (CSV, model, index, split, log,
report, manifest) a temporary file in the output's directory, renamed over
the output only once it is whole; a save that fails midway leaves neither.
"""

import contextlib
import json
import os

from .errors import open_input


@contextlib.contextmanager
def atomic_write(path, mode="w", **kwargs):
    """A file, opened with `mode` and `kwargs`, whose contents become `path`
    when the block ends: it is a temporary file in `path`'s directory, moved
    over `path` by `os.replace`, or removed if the block raises. A path that
    exists but is no regular file (/dev/null, a pipe) is written in place."""
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, mode, **kwargs) as fh:
            yield fh
        return
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_json(path, doc, **dump_kwargs):
    """Write `doc` to `path` as JSON (`json.dump` with `dump_kwargs`) and a newline, by `atomic_write`."""
    with atomic_write(path) as fh:
        json.dump(doc, fh, **dump_kwargs)
        fh.write("\n")


def read_json(path, what, error):
    """The JSON document at `path`; `error` (a CorrSpaceError class) when it is not JSON."""
    try:
        with open_input(path, what) as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as exc:  # among them JSONDecodeError and UnicodeDecodeError
        raise error(f"{what} {path} is not JSON: {exc}") from None
