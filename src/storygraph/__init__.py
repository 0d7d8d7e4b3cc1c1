"""Story-point effort estimation from issue text.

Two models over identical data: a per-document word-graph classifier
(trainable edge weights, max-pooling message passing, gated updates) and a
1-4 gram tf-idf random forest. The package covers the whole pipeline:
loading issue CSVs, tokenizing, bucketing story points into effort levels,
building graphs, training, evaluation, and report emission.
"""

from .baseline import (
    Forest,
    RandomForestConfig,
    TfidfMatrix,
    TfidfModel,
    rf_fit,
    rf_predict_many,
    tfidf_fit,
    tfidf_transform,
)
from .corpus import (
    DatasetSplit,
    Issue,
    StoryPointLevel,
    TokenizedDocument,
    bucket_level,
    load_issues,
    split_dataset,
    tokenize_issues,
    tokenize,
)
from .embeddings import (
    EmbeddingTable,
    Vocabulary,
    build_vocab,
    load_pretrained_vectors,
)
from .errors import StoryGraphError
from .experiment import (
    EvalReport,
    ExperimentConfig,
    emit_report,
    run_classification,
    run_graph_stats,
    run_regression,
    run_window_sweep,
)
from .gnn import (
    ForwardTrace,
    ModelParameters,
    TrainConfig,
    backward,
    forward,
    init_parameters,
    loss,
    predict,
    train,
)
from .graph import (
    DocumentGraph,
    EdgeTable,
    assign_edge_params,
    build_graph,
    build_graphs,
    count_cooccurrences,
)
from .model_io import (
    BaselineBundle,
    ModelBundle,
    load_baseline_model,
    load_model,
    save_baseline_model,
    save_model,
)
from .tagging import LexiconTagger, PosTagger

__version__ = "0.1.0"

__all__ = [
    "BaselineBundle",
    "DatasetSplit",
    "DocumentGraph",
    "EdgeTable",
    "EmbeddingTable",
    "EvalReport",
    "ExperimentConfig",
    "Forest",
    "ForwardTrace",
    "Issue",
    "LexiconTagger",
    "ModelBundle",
    "ModelParameters",
    "PosTagger",
    "RandomForestConfig",
    "StoryGraphError",
    "StoryPointLevel",
    "TfidfMatrix",
    "TfidfModel",
    "TokenizedDocument",
    "TrainConfig",
    "Vocabulary",
    "assign_edge_params",
    "backward",
    "bucket_level",
    "build_graph",
    "build_graphs",
    "build_vocab",
    "count_cooccurrences",
    "emit_report",
    "forward",
    "init_parameters",
    "load_baseline_model",
    "load_issues",
    "load_model",
    "load_pretrained_vectors",
    "loss",
    "predict",
    "rf_fit",
    "rf_predict_many",
    "run_classification",
    "run_graph_stats",
    "run_regression",
    "run_window_sweep",
    "save_baseline_model",
    "save_model",
    "split_dataset",
    "tfidf_fit",
    "tfidf_transform",
    "tokenize",
    "tokenize_issues",
    "train",
]
