"""Multi-aspect citation-network link prediction.

Fuses per-node text embeddings with learned structural embeddings, scores
candidate citations through a per-aspect impact chain with Gumbel-max aspect
selection, evolves per-aspect influence distributions by column-stochastic
propagation, and alternates the two systems during training. Ships ranking
metrics, aspect-level explanations, and a reproducible CLI pipeline.
"""

from .corpus import (
    DatasetSplit,
    TokenizedDocument,
    WordVectorTable,
    embed_documents,
    embed_text,
    load_edge_list,
    load_node_features,
    load_node_text,
    load_word_vectors,
    split_edges,
)
from .explain import AspectExplanation, explain_target, export_explanation
from .graph import CitationGraph, build_graph, dangling_nodes
from .metrics import MetricsReport, auc, average_precision_at_k, evaluate, ndcg_at_k, recall
from .model import (
    Dims,
    ModelParams,
    load_checkpoint,
    sample_aspect,
    save_checkpoint,
    scores_for_pairs,
)
from .propagation import (
    AspectState,
    ProjectionOperator,
    apply_projection,
    build_transition,
    initialize_state,
    propagate,
)
from .seeding import substream
from .training import (
    FitResult,
    TrainConfig,
    TrainingAbort,
    fit,
    sample_triplets,
    train_sd_phase,
    train_sy_phase,
)

__version__ = "0.1.0"
