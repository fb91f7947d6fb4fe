"""Spans around the program's public functions, installed from outside.

`Tracer.install` replaces each target where its callers look it up: a
module-level function in every `corrspace` module that binds it by name
(`cli` imports `load_csv`, `normalize`, ... into its own namespace), a
method on its class. A target that no longer exists is reported as missing
and its metric left out; the run goes on.

A span is [name, start, end, parent, op]: `parent` indexes the enclosing
span (-1 at top level), `op` is the operation the benchmark was running.
Spans stay in memory until `dump`. Only the standard library is imported
here, so that a traced CLI process pays for numpy inside its `cli.import`
span, as an untraced one does.
"""

import contextlib
import functools
import importlib
import json
import statistics
import sys
import time


def _top_k_name(args, kwargs):
    k = kwargs.get("k", args[2] if len(args) > 2 else None)
    return "index.top_k10" if k is not None and k <= 11 else "index.top_k100"


_top_k_name.names = ("index.top_k10", "index.top_k100")


def _embed_matrix_name(args, kwargs):
    values = kwargs.get("values_matrix", args[1] if len(args) > 1 else None)
    return "embed.embed_query" if values is not None and len(values) == 1 else "embed.embed_pool"


_embed_matrix_name.names = ("embed.embed_query", "embed.embed_pool")


# (module, attribute, span name or a function of the call's arguments)
TARGETS = [
    ("corrspace.datasets", "load_csv", "datasets.load_csv"),
    ("corrspace.datasets", "save_csv", "datasets.save_csv"),
    ("corrspace.datasets", "Dataset.normalized_matrix", "datasets.normalized_matrix"),
    ("corrspace.datasets", "Dataset.rows_for", "datasets.rows_for"),
    ("corrspace.core", "normalize", "core.normalize"),
    ("corrspace.embed", "load_model", "embed.load_model"),
    ("corrspace.embed", "LearnedEmbedder.embed_matrix", _embed_matrix_name),
    ("corrspace.embed", "LearnedEmbedder.embed", "embed.embed_query"),
    ("corrspace.embed", "features_matrix", "embed.features_matrix"),
    ("corrspace.train", "train", "train.train"),
    ("corrspace.train", "triple_batch_from", "train.sample_batch"),
    ("corrspace.train", "loss_and_gradient", "train.loss_and_gradient"),
    ("corrspace.train", "adam_step", "train.adam_step"),
    ("corrspace.train", "batch_loss", "train.validation"),
    ("corrspace.index", "KdTree.__init__", "index.build"),
    ("corrspace.index", "KdTree.top_k", _top_k_name),
    ("corrspace.index", "KdTree.within_radius", "index.within_radius"),
    ("corrspace.index", "load_index", "index.load_index"),
    ("corrspace.index", "save_index", "index.save_index"),
    ("corrspace.cli", "cmd_query", "cli.query"),
    ("corrspace.cli", "cmd_ingest", "cli.ingest"),
    ("corrspace.cli", "cmd_index", "cli.index"),
]


class Tracer:
    def __init__(self):
        self.spans = []
        self.missing = set()
        self.op = -1
        self._stack = []

    def _enter(self, name):
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1, self.op])
        self._stack.append(len(self.spans) - 1)

    def _exit(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._enter(name(args, kwargs) if callable(name) else name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit()

        return traced

    @contextlib.contextmanager
    def span(self, name):
        """A span the benchmark opens itself."""
        self._enter(name)
        try:
            yield
        finally:
            self._exit()

    def install(self, targets=TARGETS) -> None:
        """Wrap every target; `missing` gets the span names no installed target produces."""
        wanted, produced = set(), set()
        for module_name, attr, name in targets:
            names = set(getattr(name, "names", (name,)))
            wanted |= names
            module = importlib.import_module(module_name)
            owner_name, _, leaf = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                fn = vars(owner).get(leaf) if isinstance(owner, type) else None
                if fn is not None:
                    setattr(owner, leaf, self.wrap(fn, name))
                    produced |= names
                continue
            fn = getattr(module, leaf, None)
            if fn is None:
                continue
            traced = self.wrap(fn, name)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] == "corrspace" and mod is not None:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, key, traced)
            produced |= names
        self.missing = wanted - produced

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "missing": sorted(self.missing)}, fh)


def load_spans(paths) -> tuple:
    """(spans, missing names) from several dumps, parents re-indexed into one list."""
    out, missing = [], set()
    for path in paths:
        with open(path) as fh:
            doc = json.load(fh)
        base = len(out)
        out.extend([n, s, e, p + base if p >= 0 else -1, op] for n, s, e, p, op in doc["spans"])
        missing |= set(doc["missing"])
    return out, missing


def durations(spans, name, self_time=False) -> list:
    """Seconds per span of `name`; with self_time, minus its direct children."""
    child = [0.0] * len(spans)
    if self_time:
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
    return [end - start - child[i] for i, (n, start, end, _, _) in enumerate(spans) if n == name]


def median(values) -> float:
    """Median, or 0.0 when the workload never called the layer."""
    return float(statistics.median(values)) if values else 0.0


# per-layer metric -> (span name, scale from seconds, self time?)
SPAN_METRICS = {
    "datasets.load_csv_ms": ("datasets.load_csv", 1e3, False),
    "datasets.save_csv_ms": ("datasets.save_csv", 1e3, False),
    "datasets.normalized_matrix_ms": ("datasets.normalized_matrix", 1e3, False),
    "datasets.rows_for_ms": ("datasets.rows_for", 1e3, False),
    "core.normalize_us": ("core.normalize", 1e6, False),
    "embed.load_model_ms": ("embed.load_model", 1e3, False),
    "embed.embed_query_us": ("embed.embed_query", 1e6, False),
    "embed.embed_pool_ms": ("embed.embed_pool", 1e3, False),
    "embed.features_matrix_ms": ("embed.features_matrix", 1e3, False),
    "train.sample_batch_ms": ("train.sample_batch", 1e3, False),
    "train.loss_and_gradient_ms": ("train.loss_and_gradient", 1e3, False),
    "train.adam_step_ms": ("train.adam_step", 1e3, False),
    "train.validation_ms": ("train.validation", 1e3, False),
    "train.loop_self_ms": ("train.train", 1e3, True),
    "index.build_ms": ("index.build", 1e3, False),
    "index.load_index_ms": ("index.load_index", 1e3, False),
    "index.save_index_ms": ("index.save_index", 1e3, False),
    "index.top_k10_us": ("index.top_k10", 1e6, False),
    "index.top_k100_us": ("index.top_k100", 1e6, False),
    "index.within_radius_us": ("index.within_radius", 1e6, False),
    "cli.import_ms": ("cli.import", 1e3, False),
    "cli.query_self_ms": ("cli.query", 1e3, True),
    "cli.ingest_ms": ("cli.ingest", 1e3, False),
    "cli.index_ms": ("cli.index", 1e3, False),
}


# per-layer metrics a workload computes itself; 0.0 where it never calls the layer
OWN_METRICS = (
    "index.threshold_hits", "index.threshold_useful_ratio", "index.file_mb",
    "cli.process_ms", "trace.overhead_pct",
)


def layer_metrics(paths, own: dict, iterations_per_op: int = 0) -> dict:
    """Every per-layer metric: the per-call median of each span metric over
    the dumps at `paths`, then the workload's `own`. A span metric whose
    target is missing is left out."""
    spans, missing = load_spans(paths)
    out = {
        metric: median(durations(spans, name, self_time)) * scale
        for metric, (name, scale, self_time) in SPAN_METRICS.items()
        if name not in missing
    }
    if "train.train" not in missing:
        per_op = median(durations(spans, "train.train"))
        out["train.iterations_per_s"] = iterations_per_op / per_op if per_op else 0.0
    out.update({name: float(own.get(name, 0.0)) for name in OWN_METRICS})
    return out
