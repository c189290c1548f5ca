"""The traced benchmark wraps package functions by name (``bench/spans.py``);
every name it lists must exist, so a rename fails here first.  It also
counts kernel calls, which make one call per block of a walk's design."""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look themselves up here
    spec.loader.exec_module(module)
    return module


spans = load_spans()


@pytest.mark.parametrize("module, attr", spans.TARGETS)
def test_span_target_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("attr", [*spans.KERNELS, spans.DESIGN_SPAN.split(".")[1]])
def test_kernel_resolves_on_model_design(attr):
    from mixrrm.regret import ModelDesign

    assert callable(getattr(ModelDesign, attr))


@pytest.mark.parametrize("budget", [None, 8 * 18, 16 * 18, 80 * 18])
def test_trace_counts_whole_passes(tmp_path, monkeypatch, budget):
    """Traced around a small mixed fit, the trace counts every kernel call of
    every walk, in the preliminary classical fit and in the mixed one alike.
    Every walk, a line-search trial's too, makes exactly one kernel call per
    block of its design.  The panel: 10 people
    of 3 situations of 3 alternatives and 2 attributes, so 3 * 3*2 * 5 = 90
    padded floats each at the mixed fit's R = 5 draws and 3 * 3*2 = 18 in
    the classical one, and a block holds ``_BLOCK_FLOATS`` // 90 or // 18
    people: one and 8, 3 and all 10, or all 10 in both."""
    from mixrrm import estimation, regret
    from mixrrm.dataset import load_long_csv
    from oracles import simulate_panel, write_rows_csv

    if budget:
        monkeypatch.setattr(regret, "_BLOCK_FLOATS", budget)
    rows, attrs = simulate_panel(np.random.default_rng(3), n_individuals=10,
                                 n_situations=3, n_alternatives=3,
                                 fixed={"tc": -0.3},
                                 random={"tt": ("normal", -0.5, 0.2)})
    write_rows_csv(rows, tmp_path / "panel.csv")
    ds = load_long_csv(tmp_path / "panel.csv", attr_cols=attrs)
    spec = regret.ModelSpec(fixed_attrs=("tc",), random_attrs=("tt",))
    # random-coefficient count -> blocks of the fit's designs, built alike
    blocks = {1: len(regret.ModelDesign(ds, spec, 5).blocks),
              0: len(regret.ModelDesign(ds, regret.ModelSpec(fixed_attrs=("tc", "tt"))).blocks)}
    assert blocks == {None: {1: 1, 0: 1}, 8 * 18: {1: 10, 0: 2},
                      16 * 18: {1: 4, 0: 1}, 80 * 18: {1: 1, 0: 1}}[budget]
    walks = []  # [kind, random-coefficient count, kernel calls] per walk
    for kind, walker, kernel in [("ll", "_loglik", "individual_loglik"),
                                 ("vg", "individual_scores",
                                  "individual_loglik_gradient")]:

        def counted_walk(design, *args, walker=getattr(estimation, walker),
                         kind=kind, **kwargs):
            walks.append([kind, design.n_random, 0])
            return walker(design, *args, **kwargs)

        def counted_kernel(*args, kernel=getattr(regret.ModelDesign, kernel)):
            walks[-1][2] += 1
            return kernel(*args)

        monkeypatch.setattr(estimation, walker, counted_walk)
        monkeypatch.setattr(regret.ModelDesign, kernel, counted_kernel)
    tracer = spans.Tracer()
    tracer.install()
    try:
        estimation.fit_mixed(ds, spec, estimation.FitOptions(nrep=5))
    finally:
        tracer.uninstall()

    (prelim,) = [s for s in tracer.spans if s.name == "fit_classical"]
    classical, todo = [], [prelim]
    while todo:
        span = todo.pop()
        classical.append(span)
        todo += [s for s in tracer.spans if s.parent == span.id]
    mixed = [s for s in tracer.spans if s.id not in {c.id for c in classical}]
    for group, random in [(mixed, 1), (classical, 0)]:
        calls = {kind: [n for k, r, n in walks if (k, r) == (kind, random)]
                 for kind in ("ll", "vg")}
        assert calls["ll"] and calls["vg"]
        assert sum(s.name == "individual_scores" for s in group) == len(calls["vg"])
        for kind in ("ll", "vg"):
            assert spans.kernel_totals(group, kind)[0] == sum(calls[kind])
    for _, random, calls in walks:
        assert calls == blocks[random]
