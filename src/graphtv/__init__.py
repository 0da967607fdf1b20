"""Transductive multi-class labeling on weighted graphs.

The toolkit builds k-nearest-neighbor graphs from features, spreads a few
seed labels to every node by descending the degree-normalized
total-variation ratio of one score function per class with an accelerated
primal-dual solver, and evaluates the result with one-vs-rest ranking
metrics against a classic diffusion baseline.
"""

from . import errors
from .datasets import (
    LabeledDataset,
    Partition,
    load_features_csv,
    load_labels_csv,
    make_partition,
    synth_sbm,
    synth_two_moons,
    truth_from_pairs,
    write_features_csv,
    write_labels_csv,
)
from .evaluation import (
    EvalReport,
    baseline_label_spreading,
    evaluate,
    roc_auc,
    stability_experiment,
    write_report_csv,
)
from .graph import (
    FeatureMatrix,
    Graph,
    KernelSpec,
    build_knn_graph,
    load_graph,
    save_graph,
)
from .operators import (
    NormalizedGradient,
    apply_divergence,
    apply_gradient,
    operator_norm,
    total_variation,
)
from .solver import (
    LabelConstraints,
    OuterRecord,
    Prediction,
    SolveTrace,
    SolverConfig,
    constraint_violation,
    initialize_state,
    outer_step,
    prediction_from_scores,
    project_constraints,
    read_scores_csv,
    solve,
    write_scores_csv,
    write_trace_json,
)

__version__ = "0.1.0"

__all__ = [
    "errors",
    "FeatureMatrix",
    "Graph",
    "KernelSpec",
    "build_knn_graph",
    "load_graph",
    "save_graph",
    "NormalizedGradient",
    "apply_gradient",
    "apply_divergence",
    "total_variation",
    "operator_norm",
    "LabelConstraints",
    "SolverConfig",
    "OuterRecord",
    "SolveTrace",
    "Prediction",
    "project_constraints",
    "constraint_violation",
    "initialize_state",
    "outer_step",
    "solve",
    "prediction_from_scores",
    "write_scores_csv",
    "read_scores_csv",
    "write_trace_json",
    "LabeledDataset",
    "Partition",
    "synth_two_moons",
    "synth_sbm",
    "make_partition",
    "load_features_csv",
    "write_features_csv",
    "load_labels_csv",
    "write_labels_csv",
    "truth_from_pairs",
    "EvalReport",
    "roc_auc",
    "evaluate",
    "baseline_label_spreading",
    "stability_experiment",
    "write_report_csv",
    "__version__",
]
