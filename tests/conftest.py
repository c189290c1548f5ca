import os
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))
# the CLI tests run ``python -m mixrrm.cli`` in child processes, which find
# the package of this checkout through PYTHONPATH, as this process does
# through pytest's ``pythonpath`` setting
SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [SRC, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))])

from mixrrm.dataset import ChoiceDataset


def make_dataset(individuals, attr_names):
    """individuals: dict id -> dict sid -> list of (alt, attrs, chosen).

    Rows are numbered in that listing's sorted order, the first as row 2."""
    rows = [
        (ind_id, sid, alt, bool(chosen), list(x))
        for ind_id in sorted(individuals)
        for sid in sorted(individuals[ind_id])
        for alt, x, chosen in individuals[ind_id][sid]
    ]
    ind, sit, alt, chosen, x = zip(*rows)
    return ChoiceDataset(
        individual=ind, situation=sit, alternative=alt, chosen=chosen,
        attributes=np.array(x, dtype=float).reshape(len(rows), len(attr_names)),
        source_row=np.arange(2, len(rows) + 2), attribute_names=tuple(attr_names),
    )


def situation_slices(ds, pos=None):
    """Row slices of every situation, or only of individual ``pos``'s."""
    bounds = [*ds.situation_starts.tolist(), ds.n_rows]
    situations = range(ds.n_situations)
    if pos is not None:
        firsts = [*ds.individual_starts.tolist(), ds.n_situations]
        situations = range(firsts[pos], firsts[pos + 1])
    return [slice(bounds[s], bounds[s + 1]) for s in situations]


def per_person(design, results):
    """The block results of a ``ModelDesign.walk`` without the Hessian as one
    result per individual, in dataset order: each array of a block's result
    cut to the individual's row of its leading axis, kept as an axis of
    length 1."""
    people = []
    for (start, stop), result in zip(design.blocks, results, strict=True):
        for pos in range(stop - start):
            cut = slice(pos, pos + 1)
            people.append(result[cut] if isinstance(result, np.ndarray)
                          else tuple(part[cut] for part in result))
    return people


def random_dataset(rng, n_individuals=3, n_situations=2, n_alternatives=3,
                   n_attrs=2, scale=1.0):
    """Small random panel; choices drawn uniformly (labels only matter)."""
    individuals = {}
    for n in range(1, n_individuals + 1):
        sits = {}
        for s in range(1, n_situations + 1):
            chosen = int(rng.integers(n_alternatives))
            sits[s] = [
                (j + 1, (scale * rng.normal(size=n_attrs)).tolist(), j == chosen)
                for j in range(n_alternatives)
            ]
        individuals[n] = sits
    return make_dataset(
        individuals, [f"x{m}" for m in range(n_attrs)]
    )


@pytest.fixture(scope="module")
def poisoned_workspace():
    """Every view ``_Workspace.take`` hands out starts as ``nan``, as if the
    role had last held garbage: a kernel that reads a view after its role
    was taken again, for another array or for the same one, reads ``nan``
    and its results show it.  Module-scoped, so property tests can use it."""
    from mixrrm import regret

    take = regret._Workspace.take

    def poisoned(self, role, shape):
        view = take(self, role, shape)
        view.fill(np.nan)
        return view

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(regret._Workspace, "take", poisoned)
        yield


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def pytest_runtest_logreport(report):
    """One visible PASS/FAIL line per release criterion, capture or not."""
    if report.when != "call" or "test_acceptance.py" not in report.nodeid:
        return
    from test_acceptance import CRITERIA

    test_name = report.nodeid.split("::")[-1].split("[")[0]
    name = CRITERIA.get(test_name)
    if name:
        outcome = "PASS" if report.passed else "FAIL"
        print(f"\n[ACCEPTANCE] {name}: {outcome}", flush=True)
