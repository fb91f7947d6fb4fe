"""Correlation-preserving time-series embeddings with exact k-d tree search.

A small fully-connected network maps the non-redundant half of a series'
scaled DFT spectrum onto the unit sphere in R^m so that twice the squared
embedding distance approximates 2 - 2*corr; top-k and threshold correlation
queries then run through an exact k-d tree over the embeddings. DFT
truncation and down-sampling baselines plus an evaluation harness
(precision, gap, approximation loss, latency) round out the toolkit.
"""

__version__ = "0.2.0"

from . import errors
from .core import NormalizedSeries, TimeSeries, normalize
from .datasets import (
    Dataset,
    SplitDataset,
    gen_example1,
    gen_example2,
    load_csv,
    save_csv,
    split,
)
from .embed import (
    DftTruncationEmbedder,
    DownSampleEmbedder,
    LearnedEmbedder,
    NetworkParams,
    feature_width,
    features_matrix,
    load_model,
    save_model,
)
from .evaluation import (
    EvalReport,
    SweepConfig,
    approximation_loss,
    latency_benchmark,
    pair_rows,
    precision,
    sweep,
)
from .index import KdTree, QueryResult, load_index, save_index, threshold_radius_sq
from .train import (
    TrainConfig,
    adam_step,
    batch_loss,
    desk_config,
    init_params,
    loss_and_gradient,
    pair_batch_from,
    train,
    triple_batch_from,
    xavier_init,
)
