"""Seed-stability grid on two moons: labeled fraction x partition seed.

Reproduces the stability experiment: for each labeled fraction the solver
runs once per partition seed and we report mean/std of heldout accuracy.
The interesting readout is the std column — the method should stay stable
as seeds move around — and the (soft) monotone trend over fractions.
"""

import argparse

from graphtv import (
    KernelSpec,
    LabeledDataset,
    build_knn_graph,
    stability_experiment,
    synth_two_moons,
    write_report_csv,
)
from graphtv.tables import write_json


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=500)
    ap.add_argument("--noise", type=float, default=0.1)
    ap.add_argument("--k", type=int, default=10)
    ap.add_argument("--fractions", default="0.02,0.05,0.10,0.15,0.20")
    ap.add_argument("--seeds", default="0,1,2")
    ap.add_argument("--data-seed", type=int, default=7)
    ap.add_argument("--out-json", default=None)
    ap.add_argument("--out-csv", default=None)
    args = ap.parse_args()

    features, truth = synth_two_moons(args.n, args.noise, args.data_seed)
    graph = build_knn_graph(features, KernelSpec(k=args.k))
    dataset = LabeledDataset(truth=truth, n_classes=2, graph=graph)
    report = stability_experiment(
        dataset,
        fractions=[float(f) for f in args.fractions.split(",")],
        seeds=[int(s) for s in args.seeds.split(",")],
    )

    print(f"{'fraction':>9} {'acc mean':>9} {'acc std':>9} {'auc mean':>9} {'cells':>6}")
    for frac, row in sorted(report["summary"].items(), key=lambda kv: float(kv[0])):
        if row["n_cells"] == 0:
            print(f"{float(frac):9.3f} {'-':>9} {'-':>9} {'-':>9} {0:6d}")
            continue
        print(
            f"{float(frac):9.3f} {row['accuracy_mean']:9.4f} "
            f"{row['accuracy_std']:9.4f} {row['auc_mean']:9.4f} {row['n_cells']:6d}"
        )
    failed = [c for c in report["cells"] if "error" in c]
    if failed:
        print(f"{len(failed)} cell(s) failed:")
        for c in failed:
            print(f"  fraction={c['fraction']} seed={c['seed']}: {c['error']}")

    if args.out_json:
        write_json(args.out_json, report)
    if args.out_csv:
        write_report_csv(args.out_csv, report)


if __name__ == "__main__":
    main()
