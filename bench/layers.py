"""Per-module metrics computed from the spans of one traced round.

Times are self times in seconds: a span's duration minus what its child
spans cover, summed over every span of that name.  Counters come from the
attributes the observers in ``workloads.py`` attach to spans.  A metric
whose source name no longer exists in the package, or whose observer no
longer fits the package's API, is reported as absent (``None``).
"""

import statistics

from harness import self_time_by_name, self_times

#: metric name -> span name whose self time it sums
SELF_TIME_METRICS = {
    "graph.build_knn_graph_s": "graph.build_knn_graph",
    "graph.save_graph_s": "graph.save_graph",
    "graph.load_graph_s": "graph.load_graph",
    "operators.NormalizedGradient_s": "operators.NormalizedGradient",
    "operators.operator_norm_s": "operators.operator_norm",
    "solver.initialize_state_s": "solver.initialize_state",
    "solver.diffusion_warm_start_s": "solver.diffusion_warm_start",
    "solver.outer_step_s": "solver.outer_step",
    "solver.project_constraints_s": "solver.project_constraints",
    "solver.write_scores_csv_s": "solver.write_scores_csv",
    "solver.write_trace_json_s": "solver.write_trace_json",
    "solver.read_scores_csv_s": "solver.read_scores_csv",
    "evaluation.evaluate_s": "evaluation.evaluate",
    "evaluation.stability_experiment_s": "evaluation.stability_experiment",
    "evaluation.baseline_s": "evaluation.baseline_label_spreading",
    "datasets.load_features_csv_s": "datasets.load_features_csv",
    "datasets.load_labels_csv_s": "datasets.load_labels_csv",
    "datasets.make_partition_s": "datasets.make_partition",
    "cli.main_self_s": "cli.main",
}

#: counter metric -> span names it is derived from
COUNTER_SOURCES = {
    "graph.edges": ("graph.load_graph",),
    "graph.gxg_bytes": ("graph.load_graph",),
    "solver.project_constraints_calls": ("solver.project_constraints",),
    "solver.inner_iters": ("solver.outer_step",),
    "solver.inner_cap_hits": ("solver.outer_step",),
    "solver.outer_steps": ("solver.outer_step",),
    "solver.first_step_rejected": ("solver.solve", "solver.outer_step"),
    "solver.ns_per_edge_class_iter": ("solver.outer_step",),
    "solver.final_sum_ratios": ("solver.solve",),
    "evaluation.baseline_failures": ("evaluation.baseline_label_spreading",),
}


def _attr_values(spans, attr):
    """Values of ``attr``; ``None`` if spans exist but none carries it."""
    values = [s.attrs[attr] for s in spans if attr in s.attrs]
    if spans and not values:
        return None
    return values


def _counters(spans, own):
    by_name = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
    out = {}

    loads = by_name.get("graph.load_graph", [])
    edges = _attr_values(loads, "edges")
    if edges is None:
        out["graph.edges"] = out["graph.gxg_bytes"] = None
    else:
        largest = max(loads, key=lambda s: s.attrs["edges"], default=None)
        out["graph.edges"] = largest.attrs["edges"] if largest else 0
        out["graph.gxg_bytes"] = largest.attrs["bytes"] if largest else 0

    out["solver.project_constraints_calls"] = len(by_name.get("solver.project_constraints", []))

    steps = by_name.get("solver.outer_step", [])
    iters = _attr_values(steps, "inner_iters")
    out["solver.outer_steps"] = len(steps)
    if iters is None:
        for name in ("solver.inner_iters", "solver.inner_cap_hits",
                     "solver.ns_per_edge_class_iter"):
            out[name] = None
    else:
        out["solver.inner_iters"] = sum(iters)
        out["solver.inner_cap_hits"] = sum(1 for s in steps if s.attrs.get("cap_hit"))
        work = sum(s.attrs["inner_iters"] * s.attrs["edges"] * s.attrs["classes"]
                   for s in steps if "inner_iters" in s.attrs)
        outer_self = sum(own[s.id] for s in steps)
        out["solver.ns_per_edge_class_iter"] = outer_self / work * 1e9 if work else 0.0

    solves = by_name.get("solver.solve", [])
    finals = _attr_values(solves, "final_sum_ratios")
    if finals is None:
        out["solver.final_sum_ratios"] = out["solver.first_step_rejected"] = None
    else:
        out["solver.final_sum_ratios"] = statistics.fmean(finals) if finals else 0.0
        steps_under = {}
        for step in steps:
            steps_under[step.parent] = steps_under.get(step.parent, 0) + 1
        out["solver.first_step_rejected"] = sum(
            1 for s in solves
            if s.attrs.get("kept_steps") == 0 and steps_under.get(s.id, 0) > 0
        )

    out["evaluation.baseline_failures"] = sum(
        1 for s in by_name.get("evaluation.baseline_label_spreading", [])
        if s.attrs.get("raised") == "NoConvergenceError"
    )
    return out


def layer_metrics(spans, absent=()):
    """Per-module metrics of one traced round; ``None`` marks absent ones."""
    totals = self_time_by_name(spans)
    out = {metric: totals.get(name, 0.0) for metric, name in SELF_TIME_METRICS.items()}
    out.update(_counters(spans, self_times(spans)))
    out["trace.spans"] = len(spans)
    gone = set(absent)
    for metric, name in SELF_TIME_METRICS.items():
        if name in gone:
            out[metric] = None
    for metric, sources in COUNTER_SOURCES.items():
        if gone.intersection(sources):
            out[metric] = None
    return out


def median_metrics(rounds):
    """Per-metric median over rounds; absent in any round means absent."""
    out = {}
    for name in rounds[0]:
        values = [r[name] for r in rounds]
        out[name] = None if any(v is None for v in values) else statistics.median(values)
    return out
