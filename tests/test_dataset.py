import csv
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixrrm import dataset, errors
from mixrrm.dataset import ChoiceDataset, load_long_csv, reshape_wide_to_long
from mixrrm.errors import NonConvergence
from mixrrm.estimation import fit_classical
from mixrrm.regret import ModelSpec
from oracles import csv_copy_with_column, simulate_panel


def write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)
    return path


HEADER = ["id", "cs", "altern", "choice", "tt", "tc"]


def basic_rows():
    rows = []
    for ind in (1, 2):
        for sit in (1, 2):
            cs = (ind - 1) * 2 + sit
            for alt in (1, 2, 3):
                chosen = 1 if alt == ((ind + sit) % 3) + 1 else 0
                rows.append([ind, cs, alt, chosen, 10 * alt + ind, alt + 0.5])
    return rows


def test_basic_grouping(tmp_path):
    path = write_csv(tmp_path / "d.csv", HEADER, basic_rows())
    ds = load_long_csv(path, "id", "cs", "altern", "choice", ["tt", "tc"])
    assert ds.n_individuals == 2
    assert ds.individual_ids.tolist() == [1, 2]
    assert ds.individual_starts.tolist() == [0, 2]
    assert ds.situation_starts.tolist() == [0, 3, 6, 9]
    assert ds.attribute_names == ("tt", "tc")
    assert ds.alternative_labels == (1, 2, 3)
    assert ds.n_rows == 12


def test_attr_cols_default_to_non_reserved(tmp_path):
    path = write_csv(tmp_path / "d.csv", HEADER, basic_rows())
    ds = load_long_csv(path, "id", "cs", "altern", "choice")
    assert ds.attribute_names == ("tt", "tc")


def test_multiple_chosen(tmp_path):
    rows = basic_rows()
    rows[0][3] = 1
    rows[1][3] = 1
    path = write_csv(tmp_path / "d.csv", HEADER, rows)
    with pytest.raises(errors.MultipleChosen):
        load_long_csv(path, "id", "cs", "altern", "choice", ["tt", "tc"])


def test_none_chosen(tmp_path):
    rows = [row[:3] + [0] + row[4:] for row in basic_rows()]
    path = write_csv(tmp_path / "d.csv", HEADER, rows)
    with pytest.raises(errors.NoneChosen):
        load_long_csv(path, "id", "cs", "altern", "choice", ["tt", "tc"])


def test_empty_attribute_cell(tmp_path):
    rows = basic_rows()
    rows[4][4] = ""
    path = write_csv(tmp_path / "d.csv", HEADER, rows)
    with pytest.raises(errors.NonFiniteAttribute):
        load_long_csv(path, "id", "cs", "altern", "choice", ["tt", "tc"])


def test_nan_attribute(tmp_path):
    rows = basic_rows()
    rows[2][5] = "nan"
    path = write_csv(tmp_path / "d.csv", HEADER, rows)
    with pytest.raises(errors.NonFiniteAttribute):
        load_long_csv(path, "id", "cs", "altern", "choice", ["tt", "tc"])


def test_duplicate_alternative(tmp_path):
    rows = basic_rows()
    rows[1][2] = 1  # same alternative id twice within (1, 1)
    path = write_csv(tmp_path / "d.csv", HEADER, rows)
    with pytest.raises(errors.DuplicateAlternative):
        load_long_csv(path, "id", "cs", "altern", "choice", ["tt", "tc"])


def test_situation_too_small(tmp_path):
    rows = basic_rows()
    keep = [r for r in rows if not (r[0] == 2 and r[1] == 4 and r[2] > 1)]
    keep[-1][3] = 1  # make the lone row the chosen one
    path = write_csv(tmp_path / "d.csv", HEADER, keep)
    with pytest.raises(errors.SituationTooSmall):
        load_long_csv(path, "id", "cs", "altern", "choice", ["tt", "tc"])


def test_missing_column(tmp_path):
    path = write_csv(tmp_path / "d.csv", HEADER, basic_rows())
    with pytest.raises(errors.MissingColumn):
        load_long_csv(path, "id", "cs", "altern", "choice", ["tt", "price"])


@pytest.mark.parametrize("content", ["", "id,cs,altern,choice,tt,tc\n",
                                     "id,cs,altern,choice,tt,tc\n\n , ,\n",
                                     "\n\n\n"],
                         ids=["no_bytes", "header_only", "header_and_blanks",
                              "blank_lines"])
def test_file_without_data_rows_is_empty_input(tmp_path, content):
    path = tmp_path / "d.csv"
    path.write_text(content)
    with pytest.raises(errors.EmptyInput, match=f"^{re.escape(str(path))}: no data row"):
        load_long_csv(path, "id", "cs", "altern", "choice", ["tt", "tc"])


def test_non_binary_choice(tmp_path):
    rows = basic_rows()
    rows[0][3] = 2
    path = write_csv(tmp_path / "d.csv", HEADER, rows)
    with pytest.raises(errors.NonBinaryChoice):
        load_long_csv(path, "id", "cs", "altern", "choice", ["tt", "tc"])


def test_deterministic_reload(tmp_path):
    path = write_csv(tmp_path / "d.csv", HEADER, basic_rows())
    first = load_long_csv(path, "id", "cs", "altern", "choice", ["tt", "tc"])
    second = load_long_csv(path, "id", "cs", "altern", "choice", ["tt", "tc"])
    assert first.alternative_labels == second.alternative_labels
    for column in ("individual", "situation", "alternative", "chosen",
                   "attributes", "source_row"):
        assert np.array_equal(getattr(first, column), getattr(second, column))


def test_shuffled_file_same_order(tmp_path, rng):
    rows = basic_rows()
    shuffled = [rows[i] for i in rng.permutation(len(rows))]
    p1 = write_csv(tmp_path / "a.csv", HEADER, rows)
    p2 = write_csv(tmp_path / "b.csv", HEADER, shuffled)
    ds1 = load_long_csv(p1, "id", "cs", "altern", "choice", ["tt", "tc"])
    ds2 = load_long_csv(p2, "id", "cs", "altern", "choice", ["tt", "tc"])
    assert np.array_equal(ds1.individual_ids, ds2.individual_ids)
    assert np.array_equal(ds1.situation[ds1.situation_starts],
                          ds2.situation[ds2.situation_starts])


def classical_theta(ds):
    try:
        return fit_classical(ds, ModelSpec(fixed_attrs=("tt", "tc"))).theta
    except NonConvergence as err:
        return err.result.theta


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_interleaved_rows_load_to_equal_columns(tmp_path_factory, seed, data):
    """Rows interleaved across situations, each situation's rows kept in
    their relative order, load to the same columns and the same fit."""
    rows, attrs = simulate_panel(np.random.default_rng(seed), n_individuals=6,
                                 n_situations=3, n_alternatives=3,
                                 fixed={"tt": -0.5, "tc": -0.3})
    queues = {}
    for row in rows:
        queues.setdefault((row["id"], row["cs"]), []).append(row)
    keys = data.draw(st.permutations([key for key, queue in queues.items()
                                      for _ in queue]))
    interleaved = [queues[key].pop(0) for key in keys]
    tmp = tmp_path_factory.mktemp("interleave")
    header = list(rows[0])
    loaded = []
    for name, table in (("file.csv", rows), ("interleaved.csv", interleaved)):
        path = write_csv(tmp / name, header, [list(r.values()) for r in table])
        loaded.append(load_long_csv(path, "id", "cs", "altern", "choice", attrs))
    ds1, ds2 = loaded
    for column in ("individual", "situation", "alternative", "chosen", "attributes",
                   "situation_starts", "individual_starts"):
        assert np.array_equal(getattr(ds1, column), getattr(ds2, column)), column
    assert ds1.alternative_labels == ds2.alternative_labels
    assert np.array_equal(classical_theta(ds1), classical_theta(ds2))


def test_row_count_conservation(tmp_path):
    path = write_csv(tmp_path / "d.csv", HEADER, basic_rows())
    ds = load_long_csv(path, "id", "cs", "altern", "choice", ["tt", "tc"])
    assert ds.n_rows == len(basic_rows())


# --- reshape ----------------------------------------------------------------


WIDE_HEADER = ["id", "cs", "tt1", "tt2", "tt3", "tc1", "tc2", "tc3", "choice"]


def test_reshape_basic(tmp_path):
    path = write_csv(
        tmp_path / "w.csv", WIDE_HEADER, [[7, 1, 10, 15, 20, 2, 3, 4, 2]]
    )
    rows = reshape_wide_to_long(
        path,
        stub_specs=[("total_time", "tt"), ("total_cost", "tc")],
        id_cols=["id", "cs"],
        alt_count=3,
    )
    assert len(rows) == 3
    assert [r["altern"] for r in rows] == ["1", "2", "3"]
    assert [r["choice"] for r in rows] == ["0", "1", "0"]
    assert [r["total_time"] for r in rows] == ["10", "15", "20"]
    assert [r["total_cost"] for r in rows] == ["2", "3", "4"]


def test_reshape_refuses_alt_count_below_2(tmp_path):
    """Situations of fewer than 2 alternatives, which the loader refuses,
    are refused before the file is read: the file named need not exist."""
    for alt_count in (1, 0, -2):
        with pytest.raises(errors.InvalidOption, match=f"alt_count {alt_count} "):
            reshape_wide_to_long(
                tmp_path / "absent.csv", stub_specs=[("total_time", "tt")],
                id_cols=["id"], alt_count=alt_count, out_path=tmp_path / "long.csv",
            )
    assert not (tmp_path / "long.csv").exists()


def test_reshape_missing_stub(tmp_path):
    header = [c for c in WIDE_HEADER if c != "tt3"]
    path = write_csv(tmp_path / "w.csv", header, [[7, 1, 10, 15, 2, 3, 4, 2]])
    with pytest.raises(errors.MissingStubColumn):
        reshape_wide_to_long(
            path,
            stub_specs=[("total_time", "tt"), ("total_cost", "tc")],
            id_cols=["id", "cs"],
            alt_count=3,
        )


def test_reshape_choice_out_of_range(tmp_path):
    path = write_csv(
        tmp_path / "w.csv", WIDE_HEADER, [[7, 1, 10, 15, 20, 2, 3, 4, 5]]
    )
    with pytest.raises(errors.InconsistentAltCount):
        reshape_wide_to_long(
            path,
            stub_specs=[("total_time", "tt"), ("total_cost", "tc")],
            id_cols=["id", "cs"],
            alt_count=3,
        )


def test_reshape_values_bit_identical(tmp_path):
    value = "10.123456789012345678901234567890"
    path = write_csv(
        tmp_path / "w.csv", ["id", "tt1", "tt2", "choice"], [[1, value, "3e-17", 1]]
    )
    rows = reshape_wide_to_long(
        path, stub_specs=[("total_time", "tt")], id_cols=["id"], alt_count=2
    )
    assert rows[0]["total_time"] == value
    assert rows[1]["total_time"] == "3e-17"


@settings(max_examples=30, deadline=None)
@given(
    n_situations=st.integers(1, 5),
    alt_count=st.integers(2, 4),
    data=st.data(),
)
def test_reshape_then_load_has_one_chosen(tmp_path_factory, n_situations,
                                          alt_count, data):
    """Round trip: any valid wide file yields exactly one chosen per situation."""
    tmp = tmp_path_factory.mktemp("reshape")
    header = ["id", "cs"] + [f"tt{k}" for k in range(1, alt_count + 1)] + ["choice"]
    rows = []
    for s in range(1, n_situations + 1):
        values = [
            data.draw(st.integers(0, 100), label=f"tt{k}")
            for k in range(alt_count)
        ]
        chosen = data.draw(st.integers(1, alt_count), label="chosen")
        rows.append([1, s] + values + [chosen])
    wide = write_csv(tmp / "w.csv", header, rows)
    long_path = tmp / "l.csv"
    reshape_wide_to_long(
        wide, stub_specs=[("tt", "tt")], id_cols=["id", "cs"],
        alt_count=alt_count, out_path=long_path,
    )
    ds = load_long_csv(long_path, "id", "cs", "altern", "choice", ["tt"])
    assert ds.n_rows == n_situations * alt_count
    assert np.add.reduceat(ds.chosen, ds.situation_starts, dtype=int).tolist() == [1] * n_situations


# --- clusters ------------------------------------------------------------------


def test_individual_clusters_none_without_cluster_column(tmp_path):
    rows = []
    for ind in range(1, 6):
        for alt in (1, 2):
            rows.append([ind, ind, alt, 1 if alt == 1 else 0, alt, alt])
    path = write_csv(tmp_path / "d.csv", HEADER, rows)
    ds = load_long_csv(path, "id", "cs", "altern", "choice", ["tt", "tc"])
    assert ds.cluster is None and ds.individual_clusters is None


def test_individual_clusters_follow_the_column(tmp_path):
    """One cluster per individual, in ``individual_ids`` order, whatever
    the file order of the rows."""
    header = HEADER + ["grp"]
    groups = {4: 30, 1: 10, 3: 30, 2: -5}
    rows = [[ind, sit, alt, int(alt == 1), alt, alt, groups[ind]]
            for ind in groups for sit in (2, 1) for alt in (2, 1)]
    path = write_csv(tmp_path / "d.csv", header, rows)
    ds = load_long_csv(
        path, "id", "cs", "altern", "choice", ["tt", "tc"], cluster_col="grp"
    )
    assert ds.individual_ids.tolist() == [1, 2, 3, 4]
    assert ds.individual_clusters.tolist() == [10, -5, 30, 30]
    assert ds.individual_clusters.dtype == np.int64


def test_cluster_column_equal_to_id_matches_default(tmp_path):
    header = HEADER + ["grp"]
    rows = []
    for ind in range(1, 6):
        for alt in (1, 2):
            rows.append([ind, ind, alt, 1 if alt == 1 else 0, alt, alt, ind])
    path = write_csv(tmp_path / "d.csv", header, rows)
    ds = load_long_csv(
        path, "id", "cs", "altern", "choice", ["tt", "tc"], cluster_col="grp"
    )
    np.testing.assert_array_equal(ds.individual_clusters, ds.individual_ids)


def test_cluster_constant_column(tmp_path):
    header = HEADER + ["grp"]
    rows = []
    for ind in range(1, 6):
        for alt in (1, 2):
            rows.append([ind, ind, alt, 1 if alt == 1 else 0, alt, alt, 7])
    path = write_csv(tmp_path / "d.csv", header, rows)
    ds = load_long_csv(
        path, "id", "cs", "altern", "choice", ["tt", "tc"], cluster_col="grp"
    )
    assert ds.individual_clusters.tolist() == [7] * 5


def test_cluster_varies_within_individual(tmp_path):
    header = HEADER + ["grp"]
    rows = [
        [1, 1, 1, 1, 1.0, 1.0, 3],
        [1, 1, 2, 0, 2.0, 2.0, 4],
    ]
    path = write_csv(tmp_path / "d.csv", header, rows)
    with pytest.raises(errors.ClusterVariesWithinIndividual):
        load_long_csv(
            path, "id", "cs", "altern", "choice", ["tt", "tc"], cluster_col="grp"
        )


def test_cluster_varying_within_individual_is_refused_on_construction():
    """The rule belongs to the dataset, not only to the loader: a directly
    built panel whose individual 1 spans clusters 5 and 6 is refused."""
    with pytest.raises(errors.ClusterVariesWithinIndividual, match="individual 1"):
        ChoiceDataset(individual=[1, 1, 2, 2], situation=[1, 1, 1, 1],
                      alternative=[1, 2, 1, 2], chosen=[1, 0, 0, 1],
                      attributes=np.zeros((4, 1)), source_row=[2, 3, 4, 5],
                      attribute_names=("x",), cluster=[5, 6, 7, 7])


@pytest.mark.parametrize("mangle", [
    lambda rows: rows[0].__setitem__(0, "one"),     # id cell not an integer
    lambda rows: rows[0].__setitem__(1, "2.5"),     # situation id not integral
    lambda rows: rows.__setitem__(0, rows[0][:3]),  # short row
])
def test_malformed_rows_are_typed(tmp_path, mangle):
    rows = basic_rows()
    mangle(rows)
    path = write_csv(tmp_path / "d.csv", HEADER, rows)
    with pytest.raises(errors.MalformedCsv, match="row 2"):
        load_long_csv(path, "id", "cs", "altern", "choice", ["tt", "tc"])


@pytest.mark.parametrize("column", [0, 1, 2])
def test_integer_cells_parse_exactly(tmp_path, column):
    """Two cells apart by 1 beyond 2**53 stay apart in every key column;
    a float form is taken only when its value is an exact integer."""
    big = 2**53
    if column == 2:  # one situation holding both large alternatives
        keys = [[1, 1, big], [1, 1, f"{big + 1}.0"]]
    else:  # two individuals, or two situations of one
        keys = [[1, 1, 1], [1, 1, 2], [1, 2, 1], [1, 2, 2]]  # id, cs, altern
        keys[0][column] = keys[1][column] = big
        keys[2][column] = keys[3][column] = f"{big + 1}.0"
    rows = [key + [int(pos % 2 == 0), 1.0 + pos, 2.0] for pos, key in enumerate(keys)]
    path = write_csv(tmp_path / "d.csv", HEADER, rows)
    ds = load_long_csv(path, "id", "cs", "altern", "choice", ["tt", "tc"])
    key = (ds.individual, ds.situation, ds.alternative)[column]
    assert sorted(set(key.tolist())) == [big, big + 1]


@pytest.mark.parametrize("value, problem", [
    (f"{2**53 + 1}.5", "is not an integer"),
    ("1e-400", "is not an integer"),
    (str(2**63), "is outside the int64 range"),
    ("-1e19", "is outside the int64 range"),
])
def test_integer_cells_outside_int64_are_typed(tmp_path, value, problem):
    rows = basic_rows()
    rows[1][1] = value
    path = write_csv(tmp_path / "d.csv", HEADER, rows)
    with pytest.raises(errors.MalformedCsv, match=f"row 3: column 'cs' .*{problem}"):
        load_long_csv(path, "id", "cs", "altern", "choice", ["tt", "tc"])


def test_header_names_are_stripped(tmp_path):
    path = write_csv(tmp_path / "d.csv", ["id", " cs", "altern ", "choice", " tt", "tc "],
                     basic_rows())
    ds = load_long_csv(path)
    assert ds.attribute_names == ("tt", "tc")
    assert ds.n_rows == len(basic_rows())


def test_earliest_row_wins_across_rules(tmp_path):
    """An empty attribute cell at an earlier row is reported before a
    non-binary choice at a later one."""
    rows = basic_rows()
    rows[3][5] = ""
    rows[7][3] = 2
    path = write_csv(tmp_path / "d.csv", HEADER, rows)
    with pytest.raises(errors.NonFiniteAttribute, match="row 5: attribute 'tc'"):
        load_long_csv(path, "id", "cs", "altern", "choice", ["tt", "tc"])


def test_duplicate_alternative_is_reported_at_its_second_row(tmp_path):
    """A repeated (id, cs, altern) breaks the row rule at its second row, so
    an earlier row between the two breaking another rule is reported."""
    rows = basic_rows()
    rows[1][3] = 2      # row 3: non-binary choice
    rows[2][2] = 1      # row 4: repeats row 2's alternative
    path = write_csv(tmp_path / "d.csv", HEADER, rows)
    with pytest.raises(errors.NonBinaryChoice, match="row 3"):
        load_long_csv(path)
    rows[1][3] = 0
    path = write_csv(tmp_path / "d.csv", HEADER, rows)
    with pytest.raises(errors.DuplicateAlternative):
        load_long_csv(path)


def test_non_utf8_file_is_typed(tmp_path):
    path = write_csv(tmp_path / "d.csv", HEADER, basic_rows())
    path.write_bytes(path.read_bytes().replace(b"tc", b"t\xe9"))
    with pytest.raises(errors.MalformedCsv, match="UTF-8"):
        load_long_csv(path, "id", "cs", "altern", "choice", ["tt"])
    with pytest.raises(errors.MalformedCsv, match="UTF-8"):
        reshape_wide_to_long(path, [("x", "tt")], ["id"], 2)


# --- the numpy parse of a plain table against the per-cell reader -------------


# cells that np.loadtxt reads as float() does, cells it refuses although
# float() reads them (1_0, an Arabic-Indic digit, a carriage return before a
# comma), and cells neither reads
ODD_NUMBERS = [" 1.5 ", "\xa01.5", "\t1.5", "1e3", "+.5", "5.", "-0", "nan", "-Infinity",
               "inf", "1e400", "1_0", "\u0661", "1.5\r", "", " ", "1..5", "0x10", "1,5",
               '"1.5"']
# key cells: plain integers, exact float forms the per-cell reader takes,
# forms whose float is integral although the cell is not, cells that int()
# reads and numpy's int64 parser refuses (1_0, non-ASCII digits, values
# past int64), and the edges of 2**53 and of int64
ODD_KEYS = ["2.0", "1e3", "+2", " 2 ", "\t2", "-0", "0002", "1_0", "\u0661", "\uff12",
            "2.5", "nan", "inf", "1.0000000000000000001", "1e-400", str(2**53 - 1),
            str(-(2**53 - 1)), str(2**53), str(2**53 + 1), str(2**63 - 1), str(2**63),
            str(-(2**63)), str(-(2**63) - 1)]
ODD_CHOICES = ["2", "1.0", "0e0", "-0", " 1", "nan", "", "0.5"]


def load_outcome(path, attr_cols=None, cluster_col=None):
    """The loaded dataset, or the type and message of the error raised."""
    try:
        return load_long_csv(path, "id", "cs", "altern", "choice", attr_cols, cluster_col)
    except errors.Error as err:
        return type(err), str(err)


def assert_loads_as_per_cell_reader(path, attr_cols=None, cluster_col=None):
    """``load_long_csv`` returns the per-cell reader's dataset, column for
    column and attributes bit for bit, or raises its error type and
    message; returns whether the numpy parse took the file."""
    got = load_outcome(path, attr_cols, cluster_col)
    with mock.patch.object(dataset, "_plain_columns", lambda *_: None):
        want = load_outcome(path, attr_cols, cluster_col)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert isinstance(got, ChoiceDataset)
        for column in ("individual", "situation", "alternative", "chosen", "source_row",
                       "situation_starts", "individual_starts"):
            assert np.array_equal(getattr(got, column), getattr(want, column)), column
        assert (got.attributes.dtype, got.attributes.shape) == (
            want.attributes.dtype, want.attributes.shape)
        assert got.attributes.tobytes() == want.attributes.tobytes()
        assert (got.attribute_names, got.alternative_labels) == (
            want.attribute_names, want.alternative_labels)
        assert (got.cluster is None) == (want.cluster is None)
        if got.cluster is not None:
            assert np.array_equal(got.cluster, want.cluster)
    with open(path, newline="", encoding="utf-8-sig") as handle:
        text = handle.read()
    return dataset._plain_columns(text, "id", "cs", "altern", "choice", attr_cols,
                                  cluster_col) is not None


def basic_text(end="\n"):
    return end.join(",".join(map(str, row)) for row in [HEADER, *basic_rows()]) + end


@pytest.mark.parametrize("col, cell", [(4, cell) for cell in ODD_NUMBERS]
                         + [(col, cell) for col in (0, 1, 2) for cell in ODD_KEYS]
                         + [(3, cell) for cell in ODD_CHOICES])
def test_odd_cells_load_as_the_per_cell_reader_loads_them(tmp_path, col, cell):
    rows = basic_rows()
    rows[4][col] = cell
    path = tmp_path / "d.csv"
    path.write_bytes("\n".join(",".join(map(str, row)) for row in [HEADER, *rows])
                     .encode("utf-8"))
    assert_loads_as_per_cell_reader(path)
    assert_loads_as_per_cell_reader(path, cluster_col="id")


def test_keys_past_2_53_take_the_numpy_parse(tmp_path):
    """Integer keys between 2**53 and 2**63, which no float holds exactly,
    are read as int64 by the numpy parse, as the per-cell reader reads
    them."""
    rows = basic_rows()
    for row in rows:
        row[0] += 2**62
        row[1] += 2**53
        row[2] = 2**63 - row[2]
    path = write_csv(tmp_path / "d.csv", HEADER, rows)
    assert assert_loads_as_per_cell_reader(path)
    assert assert_loads_as_per_cell_reader(path, cluster_col="id")
    assert load_long_csv(path).individual_ids.tolist() == [2**62 + 1, 2**62 + 2]


def test_repeated_header_name_takes_the_numpy_parse(tmp_path):
    """A header may repeat a name: both readers read the first column of
    that name wherever the name is asked for, so the default attributes
    list it twice, and the numpy parse still takes the file."""
    rows = [row + [7.5] for row in basic_rows()]
    path = write_csv(tmp_path / "d.csv", [*HEADER, "tt"], rows)
    assert assert_loads_as_per_cell_reader(path)
    assert assert_loads_as_per_cell_reader(path, attr_cols=["tt"])
    ds = load_long_csv(path)
    assert ds.attribute_names == ("tt", "tc", "tt")
    assert np.array_equal(ds.attributes[:, 2], ds.attributes[:, 0])


def width_error(row, want, got):
    return errors.MalformedCsv, f"row {row}: expected {want} fields, got {got}"


@pytest.mark.parametrize("text, plain, refused", [
    (basic_text(), True, None),
    (basic_text("\r\n"), True, None),
    (basic_text("\r"), True, None),
    (basic_text().rstrip("\n"), True, None),
    ("\ufeff" + basic_text("\r\n"), True, None),
    (basic_text() + "\n", False, None),                            # blank last row
    (basic_text().replace("\n", "\n\n", 3), False, None),           # blank rows
    (basic_text().replace("\n", "\r\r\n", 2), False, None),         # a blank CR row
    (basic_text().replace("\n", "\n , ,,,, \n", 1), False, None),   # a row of blanks
    (basic_text().replace("3.5\n", "3.5,7\n", 1), False, width_error(4, 6, 7)),  # wider
    (basic_text().replace(",3.5\n", "\n", 1), False, width_error(4, 6, 5)),  # narrower
    (basic_text().replace(",3.5\n", ",3.5\r", 1), True, None),      # a lone CR row end
    (basic_text().replace("tt,tc", '"tt,tc"'), False, width_error(2, 5, 6)),  # quoted header
    (basic_text().replace("5\n", "5\x0b", 1), False, width_error(2, 6, 11)),  # vertical tab
    (basic_text().replace("tt,tc\n", "tt,tc,note\n").replace("5\n", "5,x\n"),
     False, (errors.NonFiniteAttribute,
             "row 2: attribute 'note' is missing or not finite")),  # a text column
], ids=["lf", "crlf", "cr", "no_last_break", "bom", "blank_last", "blank_rows",
        "blank_cr_row", "blank_cells_row", "wider", "narrower", "lone_cr",
        "quoted_header", "vertical_tab", "text_column"])
def test_odd_files_load_as_the_per_cell_reader_loads_them(tmp_path, text, plain, refused):
    """Both readers load each file alike, and its default load gives a
    dataset or the expected error: a row wider or narrower than the header
    is refused, so is a text column read as an attribute."""
    path = tmp_path / "d.csv"
    path.write_bytes(text.encode("utf-8"))
    assert assert_loads_as_per_cell_reader(path) == plain
    assert_loads_as_per_cell_reader(path, attr_cols=["tt"])
    outcome = load_outcome(path)
    assert outcome == refused if refused else isinstance(outcome, ChoiceDataset)


def test_cell_past_the_csv_field_limit_is_typed(tmp_path):
    """A cell longer than the csv module's field limit is a MalformedCsv
    from the per-cell reader, though np.loadtxt would read it."""
    rows = basic_rows()
    rows[0][4] = "1." + "0" * csv.field_size_limit()
    path = write_csv(tmp_path / "d.csv", HEADER, rows)
    with pytest.raises(errors.MalformedCsv, match="field larger than field limit"):
        load_long_csv(path)


# in the order they are made: cell edits before the row width changes
CHANGES = ["odd_attr", "odd_key", "odd_choice", "quote", "text_column", "duplicate",
           "long", "short", "blank"]


@st.composite
def long_files(draw):
    """Bytes of a small long-format file and whether it is written plainly:
    a valid panel of 1-3 people, each with 1-2 situations of 2-3
    alternatives and attributes ``tt`` and ``tc``, with up to 3 drawn
    changes (odd cells, quoted cells, blank rows, rows narrower or wider
    than the header, a text column, a repeated row), a drawn line ending
    (LF, CRLF or CR), perhaps no break after the last row and perhaps a
    byte-order mark."""
    header = list(HEADER)
    rows = []
    for person in range(1, draw(st.integers(1, 3)) + 1):
        for situation in range(1, draw(st.integers(1, 2)) + 1):
            labels = draw(st.lists(st.sampled_from([1, 2, 3]), min_size=2, max_size=3,
                                   unique=True))
            chosen = draw(st.sampled_from(labels))
            for label in labels:
                x = [draw(st.floats(-1e3, 1e3, allow_subnormal=False)) for _ in range(2)]
                rows.append([str(person), str(situation), str(label),
                             str(int(label == chosen)), *map(repr, x)])
    changes = sorted(draw(st.lists(st.sampled_from(CHANGES), max_size=3)), key=CHANGES.index)
    pick = lambda: draw(st.sampled_from([row for row in rows if len(row) >= 6]))
    for change in changes:
        if change == "odd_attr":
            pick()[draw(st.sampled_from([4, 5]))] = draw(st.sampled_from(ODD_NUMBERS))
        elif change == "odd_key":
            pick()[draw(st.integers(0, 2))] = draw(st.sampled_from(ODD_KEYS))
        elif change == "odd_choice":
            pick()[3] = draw(st.sampled_from(ODD_CHOICES))
        elif change == "quote":
            row = draw(st.sampled_from([header, *rows]))
            col = draw(st.integers(0, len(row) - 1))
            row[col] = f'"{row[col]}"'
        elif change == "text_column" and "note" not in header:
            header.append("note")
            for row in rows:
                row.append(draw(st.sampled_from(["a", "b c", "3"])))
        elif change == "duplicate":
            rows.insert(draw(st.integers(0, len(rows))), list(pick()))
        elif change == "long":
            pick().append("7")
        elif change == "short":
            draw(st.sampled_from([row for row in rows if row])).pop()
        elif change == "blank":
            rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from(
                [[], [""] * len(header), [" "] * len(header)])))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = end.join(",".join(row) for row in [header, *rows])
    text += end * draw(st.booleans())
    bom = draw(st.booleans())
    return ("\ufeff" * bom + text).encode("utf-8"), not changes


@settings(max_examples=200, deadline=None)
@given(long_files(), st.sampled_from([None, ["tt"], ["tc", "tt"]]),
       st.sampled_from([None, "id", "cs"]))
def test_plain_table_parse_matches_the_per_cell_reader(tmp_path_factory, file,
                                                       attr_cols, cluster_col):
    """On generated files ``load_long_csv`` gives what the per-cell reader
    gives, and a file written plainly takes the numpy parse."""
    data, plain = file
    path = tmp_path_factory.mktemp("load") / "d.csv"
    path.write_bytes(data)
    fast = assert_loads_as_per_cell_reader(path, attr_cols, cluster_col)
    assert fast or not plain


# cells of a copied file: plain ones, and ones only the csv module copies
# (quoted, with a stray quote, or holding a character at which
# str.splitlines ends a line and the csv module does not)
PLAIN_CELLS = ["1", "2.5", "a b", " x ", "", " ", "nan"]
CSV_CELLS = ['"q"', '"a,b"', '"c\r\nd"', '"e\rf"', '"g\nh"', 'i"j', '""', "k\x1cl",
             "m\u2028n"]


@st.composite
def copy_files(draw):
    """Bytes of a small file, whether it is plain text, and values for some
    of its row numbers: a header of names with spaces and up to 8 rows of
    1-4 cells, blank, comma-only or blank-celled rows among them, with drawn
    line endings (LF, CRLF or CR, mixed or not), perhaps no break after the
    last line and perhaps a byte-order mark; in one file of two, cells that
    only the csv module copies."""
    pool = PLAIN_CELLS + CSV_CELLS * draw(st.booleans())
    header = draw(st.lists(st.sampled_from(["id", " cs", "x y ", "tt"]), min_size=1,
                           max_size=4))
    rows = draw(st.lists(st.one_of(
        st.lists(st.sampled_from(pool), min_size=1, max_size=4),
        st.sampled_from([[], ["", "", ""], [" ", " "]])), max_size=8))
    endings = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=1,
                            max_size=3, unique=True))
    lines = [",".join(row) for row in [header, *rows]]
    text = "".join(line + draw(st.sampled_from(endings)) for line in lines)
    if draw(st.booleans()):
        text = text[:-2] if text.endswith("\r\n") else text[:-1]
    values = draw(st.dictionaries(st.integers(1, len(lines) + 1), st.floats(),
                                  max_size=len(lines)))
    plain = all(cell in PLAIN_CELLS for row in rows for cell in row)
    return ("\ufeff" * draw(st.booleans()) + text).encode("utf-8"), plain, values


@settings(max_examples=300, deadline=None)
@given(copy_files(), st.integers(1, 4))
def test_copy_writes_what_the_csv_module_writes(tmp_path_factory, file, chunk):
    """``copy_with_column`` writes the bytes of the csv module's row by row
    copy-through, in chunks of any size, and copies lines as text exactly
    when the file is plain."""
    data, plain, values = file
    tmp = tmp_path_factory.mktemp("copy")
    (tmp / "d.csv").write_bytes(data)
    csv_copy_with_column(tmp / "d.csv", tmp / "want.csv", "pred_p", values)
    with mock.patch.object(dataset, "_COPY_LINES", chunk):
        as_text = dataset.copy_with_column(tmp / "d.csv", tmp / "got.csv", "pred_p",
                                           values)
    assert (tmp / "got.csv").read_bytes() == (tmp / "want.csv").read_bytes()
    assert as_text == plain


def test_copy_streams_the_file(tmp_path):
    """On a 1000-person panel the copy's traced peak stays below the size of
    the data file: it holds about one chunk of lines, never a list of every
    line or the whole output."""
    n_rows = 1000 * 10 * 3
    x = np.random.default_rng(7).uniform(0.0, 4.0, (n_rows, 3)).tolist()
    lines = ["id,cs,altern,choice,tt,tc"] + [
        f"{row // 30 + 1},{row // 3 + 1},{row % 3 + 1},{int(row % 3 == 0)},{tt!r},{tc!r}"
        for row, (tt, tc, _) in enumerate(x)]
    path = tmp_path / "d.csv"
    path.write_text("\n".join(lines) + "\n")
    values = {row_no: p for row_no, (*_, p) in enumerate(x, start=2)}
    tracemalloc.start()
    try:
        assert dataset.copy_with_column(path, tmp_path / "got.csv", "pred_p", values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size
    csv_copy_with_column(path, tmp_path / "want.csv", "pred_p", values)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
