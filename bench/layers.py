"""Per-layer metrics from the spans of the traced pipelines.

Each metric is computed per traced pipeline and reported as the median
over them.  README.md lists which end-to-end metric each one should move,
and on which workload.
"""

from __future__ import annotations

import csv
import statistics
from collections import Counter, defaultdict

from spans import DESIGN_SPAN, kernel_totals, self_time


class _Pipeline:
    """The spans of one traced pipeline, indexed by name and parent."""

    def __init__(self, spans):
        self.spans = spans
        self.children = defaultdict(list)
        for span in spans:
            if span.parent is not None:
                self.children[span.parent].append(span)

    def named(self, name):
        return [s for s in self.spans if s.name == name]

    def subtree(self, root):
        out, todo = [], [root]
        while todo:
            span = todo.pop()
            out.append(span)
            todo.extend(self.children[span.id])
        return out

    def total(self, name) -> float:
        return sum(s.duration for s in self.named(name))

    def self_of(self, name) -> float:
        return sum(self_time(s, self.children[s.id]) for s in self.named(name))


def _pipeline_metrics(p: _Pipeline, shape: dict, iterations: int) -> dict:
    n = shape["individuals"]
    (fit,) = p.named("fit_mixed")
    fit_children = p.children[fit.id]
    # the preliminary classical fit runs zero-draw kernels: keep it apart
    classical = {s.id for c in fit_children if c.name == "fit_classical"
                 for s in p.subtree(c)}
    mixed = [s for s in p.spans if s.id not in classical]
    vg_calls, vg_busy = kernel_totals(mixed, "vg")
    ll_calls, ll_busy = kernel_totals(mixed, "ll")
    post = [s for name in ("predict_rows", "individual_betas") for s in p.named(name)]
    opt_ll_passes = fit.kernels.get("ll", [0, 0.0])[0] / n
    loads = p.named("load_long_csv")
    load_s = p.total("load_long_csv")
    return {
        "dataset.load_s": load_s,
        "dataset.load_calls": len(loads),
        "dataset.rows_per_s": len(loads) * shape["rows"] / load_s,
        "draws.build_s": p.total("build_drawset"),
        "draws.build_calls": len(p.named("build_drawset")),
        "draws.mb": n * shape["dims"] * shape["nrep"] * 8 / 1e6,
        "regret.design_s": p.total(DESIGN_SPAN),
        "regret.design_calls": len(p.named(DESIGN_SPAN)),
        "regret.vg_passes": vg_calls / n,
        "regret.vg_pass_s": vg_busy / (vg_calls / n),
        "regret.ll_passes": ll_calls / n,
        "regret.ll_pass_s": ll_busy / (ll_calls / n),
        "regret.pair_evals_per_s": vg_calls / n * shape["activations"] / vg_busy,
        "estimation.iterations": iterations,
        "estimation.opt_ll_passes": opt_ll_passes,
        "estimation.accept_ratio": iterations / opt_ll_passes,
        "estimation.prelim_s": sum(c.duration for c in fit_children
                                   if c.name == "fit_classical"),
        "estimation.scores_s": sum(c.duration for c in fit_children
                                   if c.name == "individual_scores"),
        "estimation.self_s": self_time(fit, fit_children),
        "postestimation.predict_self_s": p.self_of("predict_rows"),
        "postestimation.betas_self_s": p.self_of("individual_betas"),
        "postestimation.regret_s": kernel_totals(post, "info")[1],
        "cli.fit_self_s": p.self_of("cli.fit"),
        "cli.predict_self_s": p.self_of("cli.predict"),
        "cli.betas_self_s": p.self_of("cli.betas"),
    }


def panel_shape(workload, data) -> dict:
    """Sizes the per-layer rates are computed from, read from the CSV."""
    with open(data, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        next(reader)
        sizes = Counter((r[0], r[1]) for r in reader)
    ordered_pairs = sum(j * (j - 1) for j in sizes.values())
    return {
        "individuals": len({ind for ind, _ in sizes}),
        "rows": sum(sizes.values()),
        "dims": len(workload.random),
        "nrep": workload.nrep,
        # draw x situation x ordered rival pair x attribute, per kernel pass
        "activations": workload.nrep * ordered_pairs * len(workload.attrs),
    }


def per_layer(spans, untraced: list, traced: list, units: dict) -> dict:
    """Median over the traced pipelines of each metric named in ``units``."""
    per_pipe = [
        _pipeline_metrics(_Pipeline([s for s in spans if s.pipeline == k]),
                          sample["shape"], sample["iterations"])
        for k, sample in enumerate(traced)
    ]
    values = {name: statistics.median(m[name] for m in per_pipe)
              for name in per_pipe[0]}
    # each traced pipeline refits the panel of the untraced one before it;
    # both fit times are scaled to the reference host speed, like fit_s
    scaled = lambda sample: sample["fit"][0]["wall"] * sample["fit"][0]["speed"]
    values["trace.overhead_s"] = statistics.median(
        scaled(t) - scaled(u) for u, t in zip(untraced, traced)
    )
    if set(values) != set(units):
        raise ValueError(f"computed {sorted(values)}, declared {sorted(units)}")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
