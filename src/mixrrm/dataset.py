"""Long-format panel choice data: ingestion, validation, indexing.

The canonical layout is one CSV row per alternative, grouped into choice
situations (one row has ``choice = 1``), grouped into individuals.  After
loading, the data are held in an immutable nested structure ordered
individuals -> situations -> alternatives so downstream code can iterate
without re-scanning, and so that draw assignment is stable no matter how
the input file was ordered.
"""

from __future__ import annotations

import csv
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import groupby

import numpy as np

from .errors import (
    ClusterVariesWithinIndividual,
    DuplicateAlternative,
    InconsistentAltCount,
    MalformedCsv,
    MissingColumn,
    MissingStubColumn,
    MultipleChosen,
    NonBinaryChoice,
    NoneChosen,
    NonFiniteAttribute,
    SituationTooSmall,
)


@dataclass(frozen=True)
class ChoiceSituation:
    """One choice occasion: the alternatives shown and the one picked.

    ``alternatives`` keeps the file's row order; each entry is
    ``(alternative_id, attributes, chosen)`` with ``attributes`` a float
    vector aligned with the dataset's ``attribute_names``.  ``source_rows``
    holds each alternative's row number in the file it was loaded from
    (header = 1); it is empty for a situation built in memory.
    """

    situation_id: int
    alternatives: tuple[tuple[int, np.ndarray, bool], ...]
    source_rows: tuple[int, ...] = ()

    @property
    def n_alternatives(self) -> int:
        return len(self.alternatives)

    @property
    def chosen_index(self) -> int:
        for pos, (_, _, chosen) in enumerate(self.alternatives):
            if chosen:
                return pos
        raise AssertionError("validated situation lost its chosen flag")

    def attribute_matrix(self) -> np.ndarray:
        """(J, M) matrix of attribute values in row order."""
        return np.array([alt[1] for alt in self.alternatives], dtype=float)


@dataclass(frozen=True)
class IndividualBlock:
    individual_id: int
    situations: tuple[ChoiceSituation, ...]

    @property
    def n_situations(self) -> int:
        return len(self.situations)


@dataclass(frozen=True)
class ChoiceDataset:
    """Validated panel of individuals, ordered ascending by individual ID."""

    individuals: tuple[IndividualBlock, ...]
    attribute_names: tuple[str, ...]
    alternative_labels: tuple[int, ...]
    cluster_col: str | None = None
    cluster_values: dict[int, int] | None = field(default=None, repr=False)

    @property
    def n_individuals(self) -> int:
        return len(self.individuals)

    @property
    def n_situations(self) -> int:
        return sum(block.n_situations for block in self.individuals)

    @property
    def n_rows(self) -> int:
        return sum(
            situation.n_alternatives
            for block in self.individuals
            for situation in block.situations
        )

    def attribute_index(self, name: str) -> int:
        try:
            return self.attribute_names.index(name)
        except ValueError:
            raise MissingColumn(name) from None


def _parse_int(value: str, row: int, col: str) -> int:
    """id/group/alternative cells must be integer-valued (``2`` or ``2.0``)."""
    try:
        as_float = float(value)
    except (TypeError, ValueError):
        as_float = float("nan")
    if not as_float.is_integer():
        raise MalformedCsv(f"row {row}: column {col!r} value {value!r} is not an integer")
    return int(as_float)


@contextmanager
def _reading_csv(path):
    """Report a file that is not UTF-8 or not CSV as :class:`MalformedCsv`."""
    try:
        yield
    except (UnicodeDecodeError, csv.Error) as err:
        raise MalformedCsv(f"{path}: not a readable UTF-8 CSV file ({err})") from None


def load_long_csv(
    path,
    id_col: str = "id",
    group_col: str = "cs",
    alt_col: str = "altern",
    choice_col: str = "choice",
    attr_cols: list[str] | None = None,
    cluster_col: str | None = None,
) -> ChoiceDataset:
    """Load and validate a long-format choice CSV.

    Parameters
    ----------
    path : str or Path
        UTF-8 CSV with a header row.
    id_col, group_col, alt_col, choice_col : str
        Columns identifying the individual, the choice situation, the
        alternative, and the 0/1 chosen flag.
    attr_cols : list of str, optional
        Attribute columns to keep.  Defaults to every column not named
        above.
    cluster_col : str, optional
        Integer column, constant within each individual, retained for
        cluster-robust standard errors.

    Raises the specific validation error for the first violated rule;
    missing attribute cells are hard errors, not dropped rows.
    """
    with _reading_csv(path), open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise MissingColumn(id_col) from None
        rows = list(reader)

    col_pos: dict[str, int] = {}
    for pos, name in enumerate(header):
        col_pos.setdefault(name.strip(), pos)

    if attr_cols is None:
        reserved = {id_col, group_col, alt_col, choice_col}
        if cluster_col is not None:
            reserved.add(cluster_col)
        attr_cols = [name for name in header if name.strip() not in reserved]

    needed = [id_col, group_col, alt_col, choice_col] + list(attr_cols)
    if cluster_col is not None:
        needed.append(cluster_col)
    for name in needed:
        if name not in col_pos:
            raise MissingColumn(name)

    # (individual, situation) -> list of (alt_id, attrs, chosen), file order
    # kept; source_rows holds the row number of each entry
    situations: dict[tuple[int, int], list[tuple[int, np.ndarray, bool]]] = {}
    source_rows: dict[tuple[int, int], list[int]] = {}
    clusters: dict[int, int] = {}

    for row_no, row in enumerate(rows, start=2):  # header is line 1
        if not row or all(cell.strip() == "" for cell in row):
            continue
        if len(row) < len(header):
            raise MalformedCsv(
                f"row {row_no}: expected {len(header)} fields, got {len(row)}"
            )
        ind = _parse_int(row[col_pos[id_col]], row_no, id_col)
        sit = _parse_int(row[col_pos[group_col]], row_no, group_col)
        alt = _parse_int(row[col_pos[alt_col]], row_no, alt_col)

        raw_choice = row[col_pos[choice_col]].strip()
        try:
            choice_val = float(raw_choice)
        except ValueError:
            raise NonBinaryChoice(row_no, raw_choice) from None
        if choice_val not in (0.0, 1.0):
            raise NonBinaryChoice(row_no, raw_choice)
        chosen = choice_val == 1.0

        attrs = np.empty(len(attr_cols))
        for k, col in enumerate(attr_cols):
            cell = row[col_pos[col]].strip()
            try:
                value = float(cell)
            except ValueError:
                raise NonFiniteAttribute(row_no, col) from None
            if not np.isfinite(value):
                raise NonFiniteAttribute(row_no, col)
            attrs[k] = value

        if cluster_col is not None:
            cluster = _parse_int(row[col_pos[cluster_col]], row_no, cluster_col)
            if ind in clusters and clusters[ind] != cluster:
                raise ClusterVariesWithinIndividual(ind)
            clusters[ind] = cluster

        key = (ind, sit)
        entries = situations.setdefault(key, [])
        if any(existing_alt == alt for existing_alt, _, _ in entries):
            raise DuplicateAlternative(ind, sit, alt)
        entries.append((alt, attrs, chosen))
        source_rows.setdefault(key, []).append(row_no)

    blocks: list[IndividualBlock] = []
    labels: set[int] = set()
    for ind, keys in groupby(sorted(situations), key=lambda key: key[0]):
        sits: list[ChoiceSituation] = []
        for key in keys:
            entries = situations[key]
            if len(entries) < 2:
                raise SituationTooSmall(*key)
            n_chosen = sum(chosen for _, _, chosen in entries)
            if n_chosen > 1:
                raise MultipleChosen(*key)
            if n_chosen == 0:
                raise NoneChosen(*key)
            labels.update(alt for alt, _, _ in entries)
            sits.append(ChoiceSituation(key[1], tuple(entries),
                                        tuple(source_rows[key])))
        blocks.append(IndividualBlock(ind, tuple(sits)))

    return ChoiceDataset(
        individuals=tuple(blocks),
        attribute_names=tuple(attr_cols),
        alternative_labels=tuple(sorted(labels)),
        cluster_col=cluster_col,
        cluster_values=clusters if cluster_col is not None else None,
    )


def reshape_wide_to_long(
    path,
    stub_specs: list[tuple[str, str]],
    id_cols: list[str],
    alt_count: int,
    choice_col: str | None = "choice",
    out_path=None,
):
    """Explode one-row-per-situation data into one-row-per-alternative.

    Each stub ``(long_name, wide_prefix)`` expects columns
    ``{prefix}1 .. {prefix}{alt_count}`` in the wide file.  Cell values are
    copied as strings, so numbers survive bit-identically.  ``choice_col``,
    when present in the wide file, holds the chosen alternative's number and
    becomes a 0/1 ``choice`` column in the long layout.

    Returns the long rows as a list of dicts (header order: id columns,
    ``altern``, ``choice`` if any, then stubs); also writes them as CSV when
    ``out_path`` is given.
    """
    with _reading_csv(path), open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        wide_rows = list(reader)
        header = reader.fieldnames or []

    for col in id_cols:
        if col not in header:
            raise MissingColumn(col)
    for _, prefix in stub_specs:
        for k in range(1, alt_count + 1):
            if f"{prefix}{k}" not in header:
                raise MissingStubColumn(f"{prefix}{k}")
    has_choice = choice_col is not None and choice_col in header

    out_fields = list(id_cols) + ["altern"]
    if has_choice:
        out_fields.append("choice")
    out_fields += [long_name for long_name, _ in stub_specs]

    long_rows: list[dict[str, str]] = []
    for row in wide_rows:
        chosen_alt = None
        if has_choice:
            chosen_alt = _parse_int(row[choice_col], -1, choice_col)
            if not 1 <= chosen_alt <= alt_count:
                raise InconsistentAltCount(
                    f"choice value {chosen_alt} outside 1..{alt_count}"
                )
        for k in range(1, alt_count + 1):
            out: dict[str, str] = {col: row[col] for col in id_cols}
            out["altern"] = str(k)
            if has_choice:
                out["choice"] = "1" if k == chosen_alt else "0"
            for long_name, prefix in stub_specs:
                out[long_name] = row[f"{prefix}{k}"]
            long_rows.append(out)

    if out_path is not None:
        with open(out_path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.DictWriter(handle, fieldnames=out_fields)
            writer.writeheader()
            writer.writerows(long_rows)
    return long_rows


def cluster_index(ds: ChoiceDataset, cluster_col: str | None = None) -> dict[int, int]:
    """Map individual ID -> cluster ID for sandwich standard errors.

    Without a cluster column every individual is its own cluster (the
    mapping is the identity on IDs).  With one, the dataset must have been
    loaded with that same ``cluster_col``.
    """
    if cluster_col is None:
        return {block.individual_id: block.individual_id for block in ds.individuals}
    if ds.cluster_col != cluster_col or ds.cluster_values is None:
        raise MissingColumn(cluster_col)
    return {
        block.individual_id: ds.cluster_values[block.individual_id]
        for block in ds.individuals
    }
