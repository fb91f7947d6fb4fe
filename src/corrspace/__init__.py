"""Correlation-preserving time-series embeddings with exact k-d tree search.

A small fully-connected network maps the non-redundant half of a series'
scaled DFT spectrum onto the unit sphere in R^m so that twice the squared
embedding distance approximates 2 - 2*corr; top-k and threshold correlation
queries then run through an exact k-d tree over the embeddings. DFT
truncation and down-sampling baselines plus an evaluation harness
(precision, gap, approximation loss, latency) round out the toolkit.

Every export is loaded on first access (PEP 562) from the submodule that
defines it (`_LAZY`): `import corrspace` imports no submodule and no numpy,
and a process that only queries an index never imports `core`, `datasets`,
`evaluation` or `train`.
"""

__version__ = "0.3.0"

import importlib
import sys
import types

# every export, by the submodule that defines it; `errors` is exported as the module itself
_LAZY = {
    "errors": (),
    "core": ("NormalizedSeries", "TimeSeries", "normalize"),
    "datasets": ("Dataset", "SplitDataset", "gen_example1", "gen_example2", "load_csv", "save_csv", "split"),
    "embed": (
        "DftTruncationEmbedder", "DownSampleEmbedder", "LearnedEmbedder", "NetworkParams", "feature_width",
        "features_matrix", "load_model", "save_model",
    ),
    "evaluation": (
        "EvalReport", "SweepConfig", "approximation_loss", "latency_benchmark", "pair_rows", "precision", "sweep",
    ),
    "index": ("KdTree", "QueryResult", "load_index", "save_index", "threshold_radius_sq"),
    "train": (
        "TrainConfig", "adam_step", "batch_loss", "desk_config", "init_params", "loss_and_gradient",
        "pair_batch_from", "train", "triple_batch_from", "xavier_init",
    ),
}
_MODULE_OF = {name: module for module, names in _LAZY.items() for name in names}

__all__ = ["errors", *_MODULE_OF]


def __getattr__(name):
    if name in _MODULE_OF:
        module = importlib.import_module(f".{_MODULE_OF[name]}", __name__)
        for export in _LAZY[_MODULE_OF[name]]:
            globals()[export] = getattr(module, export)
        return globals()[name]
    if name in _LAZY:  # a submodule not imported yet: `corrspace.index` names the module
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_LAZY, *_MODULE_OF})


class _Package(types.ModuleType):
    def __setattr__(self, name, value):
        # Importing a submodule binds it on the package. For `train` that
        # name is the exported function, which the module must not replace,
        # whichever is imported first.
        if name == "train" and isinstance(value, types.ModuleType):
            value = value.train
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
