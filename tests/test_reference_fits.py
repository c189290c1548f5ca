"""The benchmark's correctness rule as a test of the suite: a fit of a seeded
benchmark panel through the command line reproduces its stored reference fit
(``bench/reference.json``) within the benchmark gate's 1e-8 relative, in θ
and the log-likelihood, in the number of iterations that ``ITERATIONS``
records for it, and with the stop reason, iterations and pass counts that
``PASSES`` records for its mixed fit and for its preliminary classical fit.

It fits panel 0 of seed 1 of each benchmark workload: one panel per workload
keeps the test within about a second, and panel 0 of seed 1 is the first
panel each benchmark run fits.  The panels are written by
``bench/workloads.py`` and the fits checked by ``bench/checks.py``, both
loaded by path."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from mixrrm import cli, estimation

BENCH = Path(__file__).resolve().parent.parent / "bench"

# mixed-fit iterations of the reference panels; a BLAS that rounds another
# way may move these, so a mismatch names the panel and both counts
ITERATIONS = {("recovery", "1.0"): 10, ("wide_asc", "1.0"): 32}

# (stop, iterations, ll_passes, vg_passes) of the mixed fit and of its
# preliminary classical fit, on the same panels and with the same caveat
PASSES = {
    ("recovery", "1.0"): {"mixed": ("gtol", 10, 6, 13), "classical": ("gtol", 9, 1, 10)},
    ("wide_asc", "1.0"): {"mixed": ("gtol", 32, 3, 34), "classical": ("gtol", 33, 1, 34)},
}


def load_bench_module(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # for its dataclasses
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload, key", sorted(ITERATIONS))
def test_fit_reproduces_the_reference_fit(tmp_path, monkeypatch, capsys, workload, key):
    workloads = load_bench_module("workloads", monkeypatch)
    checks = load_bench_module("checks", monkeypatch)
    assert checks.RTOL == 1e-8
    seed, panel = map(int, key.split("."))
    spec = workloads.WORKLOADS[workload]
    data, out = tmp_path / "panel.csv", tmp_path / "fit.json"
    workloads.write_workload(spec, seed, panel, data)
    passes = {}
    for kind in ("mixed", "classical"):
        def recorded(*args, fit=getattr(estimation, f"fit_{kind}"), kind=kind):
            result = fit(*args)
            passes[kind] = (result.stop, result.iterations, result.ll_passes,
                            result.vg_passes)
            return result

        monkeypatch.setattr(estimation, f"fit_{kind}", recorded)
    assert cli.main(spec.fit_argv(data, out)) == 0
    capsys.readouterr()
    with open(BENCH / "reference.json", encoding="utf-8") as handle:
        reference = json.load(handle)["fits"][workload][key]
    assert checks.check_fit(out, reference, None) == []
    iterations = json.loads(out.read_text())["iterations"]
    assert iterations == ITERATIONS[workload, key], (
        f"{workload} panel {key}: {iterations} iterations, "
        f"{ITERATIONS[workload, key]} expected")
    assert passes == PASSES[workload, key], (
        f"{workload} panel {key}: (stop, iterations, ll_passes, vg_passes) "
        f"{passes}, {PASSES[workload, key]} expected")
