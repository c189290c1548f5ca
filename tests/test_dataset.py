import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixrrm import errors
from mixrrm.dataset import cluster_index, load_long_csv, reshape_wide_to_long


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
    assert [b.individual_id for b in ds.individuals] == [1, 2]
    assert all(b.n_situations == 2 for b in ds.individuals)
    assert all(
        s.n_alternatives == 3 for b in ds.individuals for s in b.situations
    )
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
    for b1, b2 in zip(first.individuals, second.individuals):
        assert b1.individual_id == b2.individual_id
        for s1, s2 in zip(b1.situations, b2.situations):
            assert s1.situation_id == s2.situation_id
            for (a1, x1, c1), (a2, x2, c2) in zip(s1.alternatives, s2.alternatives):
                assert a1 == a2 and c1 == c2
                assert np.array_equal(x1, x2)


def test_shuffled_file_same_order(tmp_path, rng):
    rows = basic_rows()
    shuffled = [rows[i] for i in rng.permutation(len(rows))]
    p1 = write_csv(tmp_path / "a.csv", HEADER, rows)
    p2 = write_csv(tmp_path / "b.csv", HEADER, shuffled)
    ds1 = load_long_csv(p1, "id", "cs", "altern", "choice", ["tt", "tc"])
    ds2 = load_long_csv(p2, "id", "cs", "altern", "choice", ["tt", "tc"])
    assert [b.individual_id for b in ds1.individuals] == [
        b.individual_id for b in ds2.individuals
    ]
    assert [s.situation_id for b in ds1.individuals for s in b.situations] == [
        s.situation_id for b in ds2.individuals for s in b.situations
    ]


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


def test_reshape_identity_single_alternative(tmp_path):
    path = write_csv(
        tmp_path / "w.csv", ["id", "tt1", "choice"], [[1, 42.5, 1]]
    )
    rows = reshape_wide_to_long(
        path, stub_specs=[("total_time", "tt")], id_cols=["id"], alt_count=1
    )
    assert rows == [
        {"id": "1", "altern": "1", "choice": "1", "total_time": "42.5"}
    ]


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
    for block in ds.individuals:
        for sit in block.situations:
            assert sum(c for _, _, c in sit.alternatives) == 1


# --- cluster index -------------------------------------------------------------


def test_cluster_default_singletons(tmp_path):
    rows = []
    for ind in range(1, 6):
        for alt in (1, 2):
            rows.append([ind, ind, alt, 1 if alt == 1 else 0, alt, alt])
    path = write_csv(tmp_path / "d.csv", HEADER, rows)
    ds = load_long_csv(path, "id", "cs", "altern", "choice", ["tt", "tc"])
    mapping = cluster_index(ds)
    assert mapping == {i: i for i in range(1, 6)}


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
    assert cluster_index(ds, "grp") == cluster_index(ds)


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
    mapping = cluster_index(ds, "grp")
    assert set(mapping.values()) == {7}
    assert len(mapping) == 5


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


def test_non_utf8_file_is_typed(tmp_path):
    path = write_csv(tmp_path / "d.csv", HEADER, basic_rows())
    path.write_bytes(path.read_bytes().replace(b"tc", b"t\xe9"))
    with pytest.raises(errors.MalformedCsv, match="UTF-8"):
        load_long_csv(path, "id", "cs", "altern", "choice", ["tt"])
    with pytest.raises(errors.MalformedCsv, match="UTF-8"):
        reshape_wide_to_long(path, [("x", "tt")], ["id"], 1)
