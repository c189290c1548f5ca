"""In-memory spans around the public functions of each ``mixrrm`` layer.

Tracing is installed by patching the public names listed in ``TARGETS``
for the duration of a traced pipeline and removed afterwards, so the
untraced pipelines run the program exactly as shipped.  Every wrapped call
opens a span (name, start, end, parent, pipeline).  The per-individual
regret kernels run about 10^5 times per pipeline, so they open no span:
their calls and busy time are added to the innermost open span instead.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field

# (module, attribute) pairs wrapped with a span; functions are patched in
# every loaded mixrrm module that imported them by name
TARGETS = (
    ("mixrrm.dataset", "load_long_csv"),
    ("mixrrm.draws", "build_drawset"),
    ("mixrrm.estimation", "fit_classical"),
    ("mixrrm.estimation", "fit_mixed"),
    ("mixrrm.estimation", "individual_scores"),
    ("mixrrm.estimation", "save_fit_json"),
    ("mixrrm.estimation", "load_fit_json"),
    ("mixrrm.postestimation", "predict_rows"),
    ("mixrrm.postestimation", "individual_betas"),
    ("mixrrm.postestimation", "histogram_svg"),
)

# ModelDesign methods: __init__ gets a span, the kernels are aggregated
DESIGN_SPAN = "ModelDesign.__init__"
KERNELS = {
    "individual_loglik_gradient": "vg",
    "individual_loglik": "ll",
    "individual_draw_info": "info",
}


@dataclass
class Span:
    id: int
    parent: int | None
    pipeline: int
    name: str
    start: float
    end: float = 0.0
    # kernel kind -> [calls, busy seconds], for calls made directly inside
    kernels: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {"id": self.id, "parent": self.parent, "pipeline": self.pipeline,
                "name": self.name, "start": self.start, "end": self.end,
                "kernels": self.kernels}


class Tracer:
    """Collects spans for one benchmark process; ``install`` turns it on."""

    def __init__(self):
        self.spans: list[Span] = []
        self.pipeline = 0
        self._stack: list[Span] = []
        self._in_kernel = False
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, self.pipeline, name,
                    time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        span = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    def _spanned(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return wrapper

    def _aggregated(self, kind: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # a kernel calling another kernel is one activation of the outer
            if self._in_kernel or not self._stack:
                return fn(*args, **kwargs)
            self._in_kernel = True
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                busy = time.perf_counter() - start
                self._in_kernel = False
                entry = self._stack[-1].kernels.setdefault(kind, [0, 0.0])
                entry[0] += 1
                entry[1] += busy

        return wrapper

    # -- patching ------------------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        for module_name, attr in TARGETS:
            original = getattr(importlib.import_module(module_name), attr)
            wrapped = self._spanned(attr, original)
            for name, module in list(sys.modules.items()):
                if name.startswith("mixrrm") and getattr(module, attr, None) is original:
                    self._patch(module, attr, wrapped)
        design = importlib.import_module("mixrrm.regret").ModelDesign
        self._patch(design, "__init__", self._spanned(DESIGN_SPAN, design.__init__))
        for attr, kind in KERNELS.items():
            self._patch(design, attr, self._aggregated(kind, getattr(design, attr)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# -- analysis --------------------------------------------------------------------


def self_time(span: Span, children: list[Span]) -> float:
    """Span duration minus its child spans and the kernel time inside it."""
    covered = sum(c.duration for c in children)
    covered += sum(busy for _, busy in span.kernels.values())
    return span.duration - covered


def kernel_totals(spans, kind: str) -> tuple[int, float]:
    """(calls, busy seconds) of one kernel kind, summed over ``spans``."""
    calls, busy = 0, 0.0
    for span in spans:
        entry = span.kernels.get(kind)
        if entry:
            calls += entry[0]
            busy += entry[1]
    return calls, busy
