"""Seeded synthetic panels for the benchmark workloads.

Each workload is a true random-regret model plus the ``mixrrm`` command
lines that estimate it.  :func:`write_workload` draws one panel from
``numpy.random.default_rng([seed, panel])`` and writes it as a long-format
CSV; the program under test only ever sees that file.  Choice probabilities come
from the test oracle ``naive_choice_probs``, which is independent of the
package's own kernel.
"""

from __future__ import annotations

import csv
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from oracles import naive_choice_probs  # noqa: E402


@dataclass(frozen=True)
class Workload:
    name: str
    n_individuals: int
    n_situations: int
    n_alternatives: int
    fixed: dict                       # attr -> coefficient
    random: dict                      # attr -> (kind, location, scale)
    asc: dict = field(default_factory=dict)   # label -> constant, base absent
    short_share: float = 0.0          # share of situations missing one alternative
    nrep: int = 50
    fit_flags: tuple = ()             # constant and covariance flags
    panels: int = 5                   # panels 0 .. panels-1 make one cycle of a run

    @property
    def attrs(self) -> list[str]:
        return [*self.fixed, *self.random]

    @property
    def ln_count(self) -> int:
        return sum(kind == "lognormal" for kind, _, _ in self.random.values())

    def fit_argv(self, data, out):
        return ["fit", str(data), "--fixed", *self.fixed, "--rand", *self.random,
                "--ln", str(self.ln_count), "--nrep", str(self.nrep),
                "--burn", "15", *self.fit_flags, "--out", str(out)]

    def predict_argv(self, data, fit, out):
        return ["predict", str(data), "--fit", str(fit), "--out", str(out)]

    def betas_argv(self, data, fit, out):
        return ["betas", str(data), "--fit", str(fit), "--saving", str(out),
                "--replace", "--plot"]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="recovery",
            n_individuals=200, n_situations=10, n_alternatives=3,
            fixed={"tc": -0.3}, random={"tt": ("normal", -0.5, 0.2)},
            nrep=100, fit_flags=("--noconstant",), panels=5,
        ),
        Workload(
            name="wide_asc",
            n_individuals=100, n_situations=8, n_alternatives=5,
            fixed={"cost": -0.3},
            random={"time": ("normal", -0.4, 0.3),
                    "wait": ("normal", -0.2, 0.2),
                    "comfort": ("lognormal", -1.0, 0.4)},
            asc={1: 0.3, 2: -0.2, 4: 0.1, 5: -0.3},
            short_share=0.25, nrep=20, panels=7,
            fit_flags=("--basealternative", "3", "--robust"),
        ),
    )
}


def simulate_rows(workload: Workload, seed: int, panel: int) -> list[list]:
    """Long-format rows (id, cs, altern, choice, attrs...) of one panel.

    A run fits the panels 0 .. ``workload.panels`` - 1 of the same design;
    each is drawn from the pair (``seed``, ``panel``).
    """
    rng = np.random.default_rng([seed, panel])
    attrs = workload.attrs
    rows = []
    cs = 0
    for ind in range(1, workload.n_individuals + 1):
        beta = dict(workload.fixed)
        for attr, (kind, loc, scale) in workload.random.items():
            value = loc + scale * rng.standard_normal()
            beta[attr] = math.exp(value) if kind == "lognormal" else value
        coef = [beta[a] for a in attrs]
        for _ in range(workload.n_situations):
            cs += 1
            labels = list(range(1, workload.n_alternatives + 1))
            if rng.random() < workload.short_share:
                labels.pop(int(rng.integers(len(labels))))
            x_all = rng.uniform(0.0, 4.0, size=(len(labels), len(attrs)))
            asc = [workload.asc.get(label, 0.0) for label in labels]
            probs = naive_choice_probs(x_all.tolist(), coef, asc)
            chosen = int(rng.choice(len(labels), p=probs))
            for pos, label in enumerate(labels):
                rows.append([ind, cs, label, int(pos == chosen),
                             *(repr(float(v)) for v in x_all[pos])])
    return rows


def write_workload(workload: Workload, seed: int, panel: int, path) -> int:
    """Write one seeded panel to ``path``; returns the number of data rows."""
    rows = simulate_rows(workload, seed, panel)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["id", "cs", "altern", "choice", *workload.attrs])
        writer.writerows(rows)
    return len(rows)


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description="write one seeded workload CSV")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--panel", type=int, default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    write_workload(WORKLOADS[args.workload], args.seed, args.panel, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
