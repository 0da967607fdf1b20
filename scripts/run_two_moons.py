"""Two-moons walkthrough: synth -> k-NN graph -> TV ratio descent -> metrics.

Runs the solver on one partition and prints heldout accuracy / AUC next to
the label-spreading baseline, plus the recorded ratio trajectory so you can
watch the descent.  Handy as a first sanity check after touching the solver.
"""

import argparse

import numpy as np

from graphtv import (
    KernelSpec,
    baseline_label_spreading,
    build_knn_graph,
    evaluate,
    make_partition,
    solve,
    synth_two_moons,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=500)
    ap.add_argument("--noise", type=float, default=0.1)
    ap.add_argument("--k", type=int, default=10)
    ap.add_argument("--fraction", type=float, default=0.02, help="labeled fraction")
    ap.add_argument("--data-seed", type=int, default=7)
    ap.add_argument("--partition-seed", type=int, default=0)
    args = ap.parse_args()

    features, truth = synth_two_moons(args.n, args.noise, args.data_seed)
    graph = build_knn_graph(features, KernelSpec(k=args.k))
    deg = graph.degrees
    print(f"graph: n={graph.n} |E|={graph.num_edges} "
          f"deg=[{deg.min():.3g}, {deg.max():.3g}]")

    constraints, partition = make_partition(truth, 2, args.fraction,
                                            args.partition_seed)
    print(f"seeds: {constraints.n_labeled} labeled "
          f"({args.fraction:.0%}), {partition.eval_indices.size} heldout")

    prediction, trace = solve(graph, constraints)
    sums = [sum(trace.initial_ratios)] + [r.sum_ratios for r in trace.records]
    print(f"solver: {len(trace.records)} outer steps, stop={trace.stop_reason}, "
          f"sum-of-ratios {sums[0]:.4f} -> {sums[-1]:.4f}")

    report = evaluate(prediction, truth, constraints)
    print(f"graphtv:   accuracy={report.accuracy:.4f} "
          f"mean AUC={report.average_auc:.4f}")

    base = evaluate(baseline_label_spreading(graph, constraints), truth, constraints)
    print(f"spreading: accuracy={base.accuracy:.4f} "
          f"mean AUC={base.average_auc:.4f}")


if __name__ == "__main__":
    main()
