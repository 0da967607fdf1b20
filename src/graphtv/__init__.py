"""Transductive multi-class labeling on weighted graphs.

The toolkit builds k-nearest-neighbor graphs from features, spreads a few
seed labels to every node by descending the degree-normalized
total-variation ratio of one score function per class with an accelerated
primal-dual solver, and evaluates the result with one-vs-rest ranking
metrics against a classic diffusion baseline.

The top level holds the names the example scripts and the acceptance gates
use; file readers and writers, traces and the solver's steps stay in their
modules.
"""

from . import errors
from .datasets import LabeledDataset, make_partition, synth_sbm, synth_two_moons
from .evaluation import (
    baseline_label_spreading,
    evaluate,
    roc_auc,
    stability_experiment,
    write_report_csv,
)
from .graph import Graph, KernelSpec, build_knn_graph
from .operators import NormalizedGradient
from .solver import (
    LabelConstraints,
    SolverConfig,
    constraint_violation,
    project_constraints,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "errors",
    "Graph",
    "KernelSpec",
    "build_knn_graph",
    "NormalizedGradient",
    "LabelConstraints",
    "SolverConfig",
    "project_constraints",
    "constraint_violation",
    "solve",
    "LabeledDataset",
    "synth_two_moons",
    "synth_sbm",
    "make_partition",
    "roc_auc",
    "evaluate",
    "baseline_label_spreading",
    "stability_experiment",
    "write_report_csv",
    "__version__",
]
