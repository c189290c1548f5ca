"""The traced benchmark wraps package functions by name (``bench/spans.py``);
every name it lists must exist, so a rename fails here first."""

import importlib
import importlib.util
import sys
from pathlib import Path

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
