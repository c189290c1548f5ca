"""Long-format panel choice data: ingestion, validation, indexing.

The canonical layout is one CSV row per alternative, grouped into choice
situations (one row has ``choice = 1``), grouped into individuals.  A
loaded panel is a table of row columns sorted by individual and situation,
with file order kept inside a situation, so downstream code slices
contiguous runs, and draw assignment is stable no matter how the input
file was ordered.
"""

from __future__ import annotations

import csv
import io
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain, islice

import numpy as np

from .errors import (
    ClusterVariesWithinIndividual,
    DuplicateAlternative,
    EmptyInput,
    InconsistentAltCount,
    InvalidOption,
    MalformedCsv,
    MissingColumn,
    MissingStubColumn,
    MultipleChosen,
    NonBinaryChoice,
    NoneChosen,
    NonFiniteAttribute,
    SituationTooSmall,
)

_INT64 = range(-2**63, 2**63)
# the characters other than \r and \n at which str.splitlines ends a line;
# the csv module keeps them inside a cell
_LINE_MARKS = "\v\f\x1c\x1d\x1e\x85\u2028\u2029"
# lines per write of copy_with_column
_COPY_LINES = 1024


@dataclass(frozen=True, eq=False)
class ChoiceDataset:
    """A validated panel as read-only row columns, one row per alternative.

    Construction sorts the rows stably by (individual, situation) and checks
    that every situation has at least 2 rows and exactly one chosen, and
    that the cluster, if any, is constant within each individual.
    ``source_row`` is each row's number in the file it was loaded from
    (header = 1); ``cluster`` is an optional integer column.  The labels
    and the start offsets are derived: ``situation_starts`` holds the first
    row of each situation, ``individual_starts`` the first situation of each
    individual.
    """

    individual: np.ndarray    # (rows,) int64
    situation: np.ndarray     # (rows,) int64
    alternative: np.ndarray   # (rows,) int64
    chosen: np.ndarray        # (rows,) bool
    attributes: np.ndarray    # (rows, M) float
    source_row: np.ndarray    # (rows,) int64
    attribute_names: tuple[str, ...]
    cluster: np.ndarray | None = None  # (rows,) int64
    alternative_labels: tuple[int, ...] = field(init=False)
    situation_starts: np.ndarray = field(init=False, repr=False)
    individual_starts: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        set_ = lambda name, value: object.__setattr__(self, name, value)
        order = np.lexsort((self.situation, self.individual))
        dtypes = dict(individual=np.int64, situation=np.int64, alternative=np.int64,
                      chosen=bool, attributes=float, source_row=np.int64, cluster=np.int64)
        for name, dtype in dtypes.items():
            if getattr(self, name) is not None:
                column = np.asarray(getattr(self, name), dtype=dtype)[order]
                column.setflags(write=False)
                set_(name, column)
        set_("alternative_labels", tuple(sorted(set(self.alternative.tolist()))))

        starts = _run_starts(self.individual, self.situation)
        sizes = np.diff(starts, append=self.n_rows)
        n_chosen = np.add.reduceat(self.chosen, starts, dtype=np.intp)
        broken = np.flatnonzero((sizes < 2) | (n_chosen != 1))
        if broken.size:  # the first broken situation in sorted order
            s = broken[0]
            rule = (SituationTooSmall if sizes[s] < 2
                    else MultipleChosen if n_chosen[s] > 1 else NoneChosen)
            raise rule(int(self.individual[starts[s]]), int(self.situation[starts[s]]))
        set_("situation_starts", starts)
        set_("individual_starts", _run_starts(self.individual[starts]))
        if self.cluster is not None:  # refused in the first individual it varies in
            first = starts[self.individual_starts]
            own = np.repeat(self.individual_clusters, np.diff(first, append=self.n_rows))
            varies = np.flatnonzero(self.cluster != own)
            if varies.size:
                raise ClusterVariesWithinIndividual(int(self.individual[varies[0]]))

    @property
    def individual_ids(self) -> np.ndarray:
        """(N,) individual IDs, ascending."""
        return self.individual[self.situation_starts[self.individual_starts]]

    @property
    def individual_clusters(self) -> np.ndarray | None:
        """(N,) each individual's cluster, in ``individual_ids`` order; None
        without a cluster column."""
        if self.cluster is None:
            return None
        return self.cluster[self.situation_starts[self.individual_starts]]

    @property
    def n_individuals(self) -> int:
        return self.individual_starts.size

    @property
    def n_situations(self) -> int:
        return self.situation_starts.size

    @property
    def n_rows(self) -> int:
        return self.individual.size

    def attribute_index(self, name: str) -> int:
        try:
            return self.attribute_names.index(name)
        except ValueError:
            raise MissingColumn(name) from None


def _run_starts(*keys) -> np.ndarray:
    """Offsets at which a run of rows with equal ``keys`` begins."""
    changed = np.any([key[1:] != key[:-1] for key in keys], axis=0)
    return np.flatnonzero(np.r_[keys[0].size > 0, changed])


def _to_int(cell) -> int:
    """An int64 cell, exactly: ``2``, or an exact float form such as ``2.0``;
    the ValueError says why any other cell is not one."""
    try:
        value = int(cell)
    except (TypeError, ValueError):
        from decimal import Decimal  # imported only when a float form needs it
        try:
            exact = Decimal(cell) if float(cell).is_integer() else None
        except (TypeError, ValueError):
            exact = None
        if exact is None or exact != exact.to_integral_value():
            raise ValueError("is not an integer") from None
        value = int(exact)
    if value not in _INT64:
        raise ValueError("is outside the int64 range")
    return value


def _not_int(value, row: int, col: str) -> MalformedCsv | None:
    """The error of an id-like cell that :func:`_to_int` rejects, else None."""
    try:
        _to_int(value)
    except ValueError as err:
        return MalformedCsv(f"row {row}: column {col!r} value {value!r} {err}")


def _parsed(cells, parse, dtype):
    """``parse`` of every cell as a ``dtype`` array, and the mask of the
    cells it rejects with ValueError (those hold 0)."""
    bad = np.zeros(len(cells), dtype=bool)
    try:
        return np.fromiter(map(parse, cells), dtype=dtype, count=len(cells)), bad
    except ValueError:
        values = np.zeros(len(cells), dtype=dtype)
        for pos, cell in enumerate(cells):
            try:
                values[pos] = parse(cell)
            except ValueError:
                bad[pos] = True
        return values, bad


@contextmanager
def _reading_csv(path):
    """Report a file that is not UTF-8 or not CSV as :class:`MalformedCsv`."""
    try:
        yield
    except (UnicodeDecodeError, csv.Error) as err:
        raise MalformedCsv(f"{path}: not a readable UTF-8 CSV file ({err})") from None


def open_csv(path):
    """A data file opened as UTF-8 text for the csv module; a leading
    byte-order mark, which spreadsheet exports write, is dropped."""
    return open(path, newline="", encoding="utf-8-sig")


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
        UTF-8 CSV with a header row, with or without a byte-order mark.
    id_col, group_col, alt_col, choice_col : str
        Columns identifying the individual, the choice situation, the
        alternative, and the 0/1 chosen flag.
    attr_cols : list of str, optional
        Attribute columns to keep.  Defaults to every column not named
        above.
    cluster_col : str, optional
        Integer column, constant within each individual, retained for
        cluster-robust standard errors.

    Raises the validation error of the earliest row breaking a row rule,
    else of the first sorted situation breaking a situation rule, else of
    the first sorted individual whose cluster varies (the rules
    :class:`ChoiceDataset` checks on construction); missing attribute cells
    are hard errors, not dropped rows.  A file with no non-blank row after
    its header raises :class:`EmptyInput`.

    A plain numeric table (:func:`_plain_columns`) that breaks no row rule
    is parsed by one ``np.loadtxt`` call; every other file is read cell by
    cell (:func:`_cell_columns`), which raises every loading error.  Both
    give the same columns, bit for bit.
    """
    with _reading_csv(path), open_csv(path) as handle:
        text = handle.read()
    names = (id_col, group_col, alt_col, choice_col, attr_cols, cluster_col)
    columns = _plain_columns(text, *names)
    if columns is None:
        columns = _cell_columns(path, text, *names)
    return ChoiceDataset(**columns)


def _layout(header, id_col, group_col, alt_col, choice_col, attr_cols, cluster_col):
    """The key columns (individual, situation, alternative, then the cluster
    if any), the attribute columns and each header name's first position;
    a needed column missing from ``header`` raises :class:`MissingColumn`."""
    col_pos = {name: pos for pos, name in reversed(list(enumerate(header)))}
    if attr_cols is None:
        reserved = {id_col, group_col, alt_col, choice_col, cluster_col}
        attr_cols = [name for name in header if name not in reserved]
    keys = [id_col, group_col, alt_col] + [cluster_col] * (cluster_col is not None)
    for name in [*keys[:3], choice_col, *attr_cols, *keys[3:]]:
        if name not in col_pos:
            raise MissingColumn(name)
    return keys, attr_cols, col_pos


def _repeats(ind, sit, alt) -> np.ndarray:
    """Mask of the rows whose (individual, situation, alternative) an
    earlier row has."""
    order = np.lexsort((alt, sit, ind))  # stable: equal keys keep file order
    keys = np.stack([ind, sit, alt])[:, order]
    repeat = np.zeros(len(ind), dtype=bool)
    repeat[order[1:][np.all(keys[:, 1:] == keys[:, :-1], axis=0)]] = True
    return repeat


def _plain_text(text) -> bool:
    """Whether ``text`` has no quote character and none of the characters
    at which ``str.splitlines`` ends a line and the csv module does not.  In
    such text a csv row is one line (ended by ``\\r\\n``, ``\\r`` or
    ``\\n``) split at every comma."""
    return '"' not in text and not any(mark in text for mark in _LINE_MARKS)


def _plain_columns(text, id_col, group_col, alt_col, choice_col, attr_cols,
                   cluster_col) -> dict | None:
    """The :class:`ChoiceDataset` columns of ``text`` when it is a plain
    numeric table that breaks no row rule, else None.

    A plain numeric table is plain text (:func:`_plain_text`) with no blank
    row, whose data rows are as wide as the header and whose cells one
    ``np.loadtxt`` reads: a key cell as int64, which numpy reads only when it
    is a sign and ASCII digits between blanks, as :func:`_to_int` reads it
    (numpy 1.x reads ``2.5`` through a float and warns, which refuses it);
    any other cell as ``float`` reads it, to the same bit (numpy refuses
    ``1_0`` or non-ASCII digits, which ``float`` reads).  As a row is one
    line split at every comma, no line may exceed the csv field limit.
    """
    if not _plain_text(text):
        return None
    lines = text.splitlines()
    n_rows = len(lines) - 1
    if n_rows < 1 or max(map(len, lines)) > csv.field_size_limit():
        return None
    header = [name.strip() for name in lines[0].split(",")]
    try:
        keys, attr_cols, col_pos = _layout(header, id_col, group_col, alt_col,
                                           choice_col, attr_cols, cluster_col)
    except MissingColumn:
        return None
    # fields named by position, as a header may repeat a name
    key_pos = {col_pos[name] for name in keys}
    dtype = [(f"f{pos}", np.int64 if pos in key_pos else float)
             for pos in range(len(header))]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            table = np.loadtxt(lines[1:], delimiter=",", comments=None, ndmin=1,
                               dtype=dtype)
    except (ValueError, DeprecationWarning):
        return None
    if len(table) != n_rows:  # loadtxt skips blank lines
        return None
    column = lambda name: table[f"f{col_pos[name]}"]
    choice = column(choice_col)
    attributes = np.empty((n_rows, len(attr_cols)))
    for k, name in enumerate(attr_cols):
        attributes[:, k] = column(name)
    if (not np.all((choice == 0.0) | (choice == 1.0))
            or not np.all(np.isfinite(attributes))):
        return None
    ind, sit, alt, *cluster = map(column, keys)
    if _repeats(ind, sit, alt).any():
        return None
    return dict(individual=ind, situation=sit, alternative=alt, chosen=choice == 1.0,
                attributes=attributes, source_row=np.arange(2, n_rows + 2),
                attribute_names=tuple(attr_cols), cluster=cluster[0] if cluster else None)


def _cell_columns(path, text, id_col, group_col, alt_col, choice_col, attr_cols,
                  cluster_col) -> dict:
    """The :class:`ChoiceDataset` columns of the CSV ``text`` read from
    ``path``, parsed cell by cell: the one reader of quoted cells, blank
    rows, text columns and key cells such as ``2.0`` or ``1e3``, and the
    one that raises a loading error."""
    with _reading_csv(path):
        reader = csv.reader(io.StringIO(text, newline=""))
        header = [name.strip() for name in next(reader, [])]
        rows = list(reader)
    row_no = np.flatnonzero([bool("".join(row).strip()) for row in rows])
    if not row_no.size:
        raise EmptyInput(f"{path}: no data row after the header")
    keys, attr_cols, col_pos = _layout(header, id_col, group_col, alt_col,
                                       choice_col, attr_cols, cluster_col)

    rows = [rows[pos] for pos in row_no]
    row_no += 2  # the header is row 1
    width = np.array([len(row) for row in rows], dtype=np.intp)
    for pos in np.flatnonzero(width < len(header)):  # padded so the other cells parse
        rows[pos] = rows[pos] + [""] * (len(header) - width[pos])
    raw = {name: [row[col_pos[name]] for row in rows] for name in [*keys, choice_col]}
    ints = {name: _parsed(raw[name], _to_int, np.int64) for name in keys}
    ind, sit, alt = (ints[name][0] for name in keys[:3])
    choice, bad_choice = _parsed(raw[choice_col], float, float)
    attributes, bad = _parsed([row[col_pos[name]] for row in rows for name in attr_cols],
                              float, float)
    attributes = attributes.reshape(len(rows), len(attr_cols))
    bad_attrs = bad.reshape(attributes.shape) | ~np.isfinite(attributes)

    # each row rule as (the rows breaking it, the error of a row), in the
    # order one row is checked; the earliest row wins, then the earliest rule
    int_rule = lambda name: (ints[name][1],
                             lambda p: _not_int(raw[name][p], row_no[p], name))
    rules = [(width != len(header), lambda p: MalformedCsv(
        f"row {row_no[p]}: expected {len(header)} fields, got {width[p]}"))]
    rules += [int_rule(name) for name in keys[:3]]
    rules.append((bad_choice | ((choice != 0.0) & (choice != 1.0)),
                  lambda p: NonBinaryChoice(row_no[p], raw[choice_col][p].strip())))
    rules += [(bad_attrs[:, k], lambda p, name=name: NonFiniteAttribute(row_no[p], name))
              for k, name in enumerate(attr_cols)]
    cluster = None
    if cluster_col is not None:
        cluster = ints[cluster_col][0]
        rules.append(int_rule(cluster_col))
    rules.append((_repeats(ind, sit, alt),
                  lambda p: DuplicateAlternative(ind[p], sit[p], alt[p])))
    broken = np.array([mask for mask, _ in rules])
    if broken.any():
        p = int(np.argmax(broken.any(axis=0)))
        raise rules[int(np.argmax(broken[:, p]))][1](p)

    return dict(individual=ind, situation=sit, alternative=alt, chosen=choice == 1.0,
                attributes=attributes, source_row=row_no,
                attribute_names=tuple(attr_cols), cluster=cluster)


def copy_with_column(path, out_path, name: str, values) -> bool:
    """Copy the data file at ``path`` to the CSV file ``out_path`` with one
    more column: ``name`` ends the header, and ``repr(values[n])`` ends each
    row whose number ``n`` (the header is row 1, as :func:`load_long_csv`
    numbers rows) ``values`` holds; the other rows, such as the blank rows
    the loader skips, are copied unchanged.  The copy is what ``csv.writer``
    writes for the rows ``csv.reader`` reads: UTF-8 without a byte-order
    mark, every row ended by ``\\r\\n``.

    The file is streamed in chunks of lines, one write per chunk.  While
    the text is plain (:func:`_plain_text`) a row is its line, so the line
    is copied as it is; from the first chunk that is not, the csv module
    reads and writes the rest, and re-quotes a quoted cell as ``csv.writer``
    does.  Returns whether every line was copied as text.
    """
    get = values.get
    with _reading_csv(path), open_csv(path) as source, \
            open(out_path, "w", newline="", encoding="utf-8") as out:
        start = 1
        while chunk := list(islice(source, _COPY_LINES)):
            if not _plain_text("".join(chunk)):
                break
            rows = []
            for row_no, line in enumerate(chunk, start):
                line = line.rstrip("\r\n")
                value = get(row_no)
                if value is not None:
                    line = f"{line},{value!r}" if line else repr(value)
                rows.append(line)
            if start == 1:
                header = chunk[0].rstrip("\r\n")
                rows[0] = f"{header},{name}" if header else name
            rows.append("")
            out.write("\r\n".join(rows))
            start += len(chunk)
        else:
            return True
        writer = csv.writer(out)
        for row_no, row in enumerate(csv.reader(chain(chunk, source)), start):
            value = get(row_no)
            if row_no == 1:
                row.append(name)
            elif value is not None:
                row.append(repr(value))
            writer.writerow(row)
    return False


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
    ``out_path`` is given.  An ``alt_count`` below 2 is refused unread.
    """
    if alt_count < 2:
        raise InvalidOption(f"alt_count {alt_count!r} is below 2; a choice "
                            "situation needs at least 2 alternatives")
    with _reading_csv(path), open_csv(path) as handle:
        reader = csv.DictReader(handle)
        wide_rows = [(reader.line_num, row) for row in reader]
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
    for row_no, row in wide_rows:
        chosen_alt = None
        if has_choice:
            try:
                chosen_alt = _to_int(row[choice_col])
            except ValueError:
                raise _not_int(row[choice_col], row_no, choice_col) from None
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
