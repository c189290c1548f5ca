import builtins
import contextlib
import csv
import io
import json
import math
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mixrrm import cli
from mixrrm.cli import build_parser, main
from mixrrm.options import FitOptions
from oracles import csv_copy_with_column, simulate_panel, write_rows_csv
from test_reference_fits import load_bench_module


@pytest.fixture
def panel_csv(tmp_path, rng):
    rows, _ = simulate_panel(rng, n_individuals=40, n_situations=3,
                             n_alternatives=3,
                             fixed={"total_cost": -0.3},
                             random={"total_time": ("normal", -0.5, 0.2)})
    path = tmp_path / "panel.csv"
    write_rows_csv(rows, path)
    return path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fit_classical_dispatch(panel_csv, tmp_path, capsys):
    out_json = tmp_path / "fit.json"
    code, out, err = run(
        capsys, "fit", panel_csv, "--fixed", "total_time", "total_cost",
        "--noconstant", "--out", out_json,
    )
    assert code == 0
    assert "Classical random regret minimization fit" in out
    assert "total_time" in out and "total_cost" in out
    payload = json.loads(out_json.read_text())
    assert payload["nrep"] == 1
    assert payload["converged"] is True
    assert payload["model"]["random_attrs"] == []


def test_fit_json_byte_identical(panel_csv, tmp_path, capsys):
    j1, j2 = tmp_path / "a.json", tmp_path / "b.json"
    for out in (j1, j2):
        code, _, _ = run(
            capsys, "fit", panel_csv, "--fixed", "total_time", "total_cost",
            "--noconstant", "--out", out,
        )
        assert code == 0
    assert j1.read_bytes() == j2.read_bytes()


def test_fit_and_predict_read_a_byte_order_mark(panel_csv, tmp_path, capsys):
    """A spreadsheet's "CSV UTF-8" export starts with a byte-order mark: fit
    reads such a copy of a panel as it reads the panel, and predict copies
    its rows through without the mark."""
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + panel_csv.read_bytes())
    outputs = []
    for data in (panel_csv, marked):
        fit, pred = tmp_path / f"{data.stem}.json", tmp_path / f"{data.stem}_pred.csv"
        code, out, err = run(capsys, "fit", data, "--fixed", "total_time", "total_cost",
                             "--noconstant", "--out", fit)
        assert code == 0, err
        code, _, err = run(capsys, "predict", data, "--fit", fit, "--out", pred)
        assert code == 0, err
        outputs.append((out, fit.read_bytes(), pred.read_bytes()))
    assert outputs[0] == outputs[1]


def test_fit_mixed_with_cluster(panel_csv, tmp_path, capsys):
    out_json = tmp_path / "fit.json"
    code, out, err = run(
        capsys, "fit", panel_csv, "--fixed", "total_cost",
        "--rand", "total_time", "--noconstant", "--nrep", 20,
        "--cluster", "id", "--out", out_json,
    )
    assert code == 0
    assert "Mixed random regret minimization fit" in out
    assert "sd.total_time" in out
    payload = json.loads(out_json.read_text())
    assert payload["covariance_kind"] == "cluster"
    assert payload["nrep"] == 20 and payload["burn"] == 15


def test_fit_cluster_column_gives_library_sandwich(tmp_path, capsys, rng):
    """``--cluster grp`` on a column of two groups: the fit's covariance is
    the library's cluster sandwich over each person's group."""
    from mixrrm.dataset import load_long_csv
    from mixrrm.estimation import covariance_cluster, individual_scores, load_fit_json
    from mixrrm.regret import ModelDesign

    rows, attrs = simulate_panel(rng, n_individuals=30, n_situations=3,
                                 n_alternatives=3,
                                 fixed={"total_time": -0.5, "total_cost": -0.3})
    for row in rows:
        row["grp"] = 1 + row["id"] % 2
    data, out_json = tmp_path / "grouped.csv", tmp_path / "fit.json"
    write_rows_csv(rows, data)
    code, out, _ = run(capsys, "fit", data, "--fixed", "total_time", "total_cost",
                       "--noconstant", "--cluster", "grp", "--out", out_json)
    assert code == 0 and "covariance: cluster" in out
    fit = load_fit_json(out_json)
    ds = load_long_csv(data, attr_cols=attrs, cluster_col="grp")
    assert set(ds.individual_clusters.tolist()) == {1, 2}
    design = ModelDesign(ds, fit.spec)
    _, scores, hessian = individual_scores(design, design.draws(), fit.theta,
                                           hessian=True)
    np.testing.assert_array_equal(
        fit.covariance, covariance_cluster(hessian, scores, ds.individual_clusters))


def test_fit_robust_on_one_individual_exit_1_before_any_pass(tmp_path, capsys,
                                                            monkeypatch):
    """A robust sandwich has one cluster per person, so ``--robust`` on a
    panel of one person (2 situations) is refused before any pass over the
    data, naming the option, and writes no fit file."""
    from mixrrm.regret import ModelDesign

    data, out_json = tmp_path / "one.csv", tmp_path / "fit.json"
    data.write_text("id,cs,altern,choice,a\n1,1,1,1,0.5\n1,1,2,0,1.5\n"
                    "1,2,1,0,2.0\n1,2,2,1,0.1\n")
    walks = []
    monkeypatch.setattr(ModelDesign, "walk", lambda *args: walks.append(args))
    code, out, err = run(capsys, "fit", data, "--fixed", "a", "--noconstant",
                         "--robust", "--out", out_json)
    assert (code, out, walks) == (1, "", [])
    assert "--robust" in err and "2 individuals" in err
    assert not out_json.exists()


def test_fit_from_starting_vector(panel_csv, tmp_path, capsys):
    code, out, _ = run(
        capsys, "fit", panel_csv, "--fixed", "total_cost",
        "--rand", "total_time", "--noconstant", "--nrep", 10,
        "--from", "[-0.3, -0.5, 0.1]",
    )
    assert code == 0


@pytest.mark.parametrize("start", ['["0.1"]', "[true]", "[0.1, false]", '[[0.1, "a"]]'])
def test_fit_start_not_numbers_exit_1(tmp_path, capsys, start):
    """A --from list holding a string or a boolean is refused before the
    data are read, here an absent file."""
    code, out, err = run(capsys, "fit", tmp_path / "absent.csv", "--fixed", "a",
                         "--noconstant", "--from", start)
    assert (code, out, err) == (1, "", "error: start is not a list of numbers\n")


def test_bare_fit_parses_into_the_fit_option_defaults():
    """The fit command's draw, level and optimizer defaults are FitOptions'."""
    args = build_parser().parse_args(["fit", "data.csv", "--fixed", "a"])
    defaults = FitOptions()
    for name in ("nrep", "burn", "level", "maxiter", "gtol"):
        assert getattr(args, name) == getattr(defaults, name), name


def test_fit_missing_column_exit_1(panel_csv, capsys):
    code, out, err = run(
        capsys, "fit", panel_csv, "--fixed", "price", "--noconstant"
    )
    assert code == 1
    assert "error" in err.lower()
    assert out == ""


@pytest.mark.parametrize("argv", [
    ["fit"], ["fit", "x.csv", "--no-such-flag"],
    ["--threads", "0", "fit", "x.csv", "--fixed", "a"],
    ["fit", "x.csv", "--fixed", "a", "--threads", "0"],
])
def test_usage_error_is_exit_1(argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 1


@pytest.mark.parametrize("flags", [
    ["--level", "150"], ["--level", "0"], ["--maxiter", "-1"], ["--gtol", "0"],
    ["--gtol", "inf"], ["--gtol", "nan"], ["--burn", "-1"], ["--from", "[0.1,"],
    ["--from", "{nope}"], ["--nrep", "0"], ["--nrep", "0", "--rand", "b"],
    ["--from", "null"],
])
def test_fit_bad_option_exit_1(tmp_path, capsys, flags):
    # the data file does not exist: the option is rejected before any work
    code, out, err = run(capsys, "fit", tmp_path / "absent.csv",
                         "--fixed", "a", *flags)
    assert code == 1
    assert flags[0].lstrip("-") in err
    assert out == ""


@pytest.mark.parametrize("flags, message", [
    ([], "model has no attributes"),
    (["--fixed", "a", "--rand", "a"], "attributes named twice: ['a']"),
    (["--fixed", "a", "a"], "attributes named twice: ['a']"),
    (["--rand", "a", "--ln", "2"], "ln_count 2 outside 0..1"),
])
def test_fit_bad_model_exit_1(tmp_path, capsys, flags, message):
    # the model is refused before the (absent) data file is read
    code, out, err = run(capsys, "fit", tmp_path / "absent.csv", *flags)
    assert (code, out) == (1, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("label", ["9", "1"])
def test_fit_base_alternative_without_constants_exit_1(panel_csv, tmp_path, capsys,
                                                       label):
    """A base alternative names the constant pinned to 0, so it contradicts
    --noconstant, whether or not the label is in the data; it is refused
    before the data are read."""
    message = ("error: --basealternative names the base of the constants that "
               "--noconstant leaves out\n")
    for data in (panel_csv, tmp_path / "absent.csv"):
        code, out, err = run(capsys, "fit", data, "--fixed", "total_time",
                             "--noconstant", "--basealternative", label)
        assert (code, out, err) == (1, "", message)


def test_fit_cluster_with_robust_exit_1(panel_csv, tmp_path, capsys):
    """--cluster and --robust each choose the sandwich, so the pair is
    refused, before the data are read, rather than one of them ignored."""
    message = ("error: --cluster and --robust each choose the sandwich covariance; "
               "give one\n")
    for data in (panel_csv, tmp_path / "absent.csv"):
        code, out, err = run(capsys, "fit", data, "--fixed", "total_time",
                             "--cluster", "id", "--robust")
        assert (code, out, err) == (1, "", message)


@pytest.mark.parametrize("start", ["[0.1]", '["a", "b"]', '{"a": 1}', "[NaN, 0]"])
def test_fit_bad_start_exit_1(panel_csv, capsys, start):
    code, out, err = run(capsys, "fit", panel_csv, "--fixed", "total_time",
                         "total_cost", "--noconstant", "--from", start)
    assert code == 1
    assert "start" in err
    assert out == ""


@pytest.mark.parametrize("model, start", [
    (["--fixed", "total_cost", "--rand", "total_time"], "[1e308, 0, 0]"),
    (["--fixed", "total_cost", "total_time"], "[1e308, 0]"),
])
def test_fit_overflowing_start_is_one_error_line(panel_csv, tmp_path, model, start):
    """A start whose pass overflows is refused with exit 1 and the one
    typed error line, with RuntimeWarning an error: its pass runs with
    numpy's floating-point warnings off, as a line-search trial does."""
    out_json = tmp_path / "fit.json"
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "mixrrm.cli", "fit",
         str(panel_csv), *model, "--noconstant", "--nrep", "5", "--from", start,
         "--out", str(out_json)],
        capture_output=True, text=True, timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error: log-likelihood not finite at the starting values\n"
    assert not out_json.exists()


def test_predict_and_betas_at_an_overflowing_fit_exit_1(panel_csv, tmp_path, capsys):
    """A fit whose estimates overflow the pass, its fixed coefficient
    edited to 1e308, is refused by ``predict`` and ``betas`` with exit 1
    and the one typed error line, with RuntimeWarning an error, and neither
    writes its output: their walk runs with numpy's floating-point warnings
    off, and a summary that is not finite is refused."""
    fit = fit_json(panel_csv, tmp_path, capsys)
    payload = json.loads(fit.read_text())
    payload["theta"][0] = 1e308
    fit.write_text(json.dumps(payload))
    pred, betas = tmp_path / "pred.csv", tmp_path / "betas.csv"
    for argv, out in [(["predict", "--out", pred], pred),
                      (["betas", "--saving", betas], betas)]:
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "mixrrm.cli",
             argv[0], str(panel_csv), "--fit", str(fit), *map(str, argv[1:])],
            capture_output=True, text=True, timeout=120,
        )
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == ("error: the pass over the data is not finite at the "
                               "fit's estimates\n")
        assert not out.exists()


def test_bug_in_a_handler_propagates(monkeypatch):
    """Exit code 1 is for typed errors; anything else is a bug and keeps
    its traceback."""
    def broken(args):
        raise KeyError("model")

    monkeypatch.setattr(cli, "cmd_lognormal", broken)
    with pytest.raises(KeyError):
        main(["lognormal", "--fit", "f.json", "--attr", "x"])


def test_fit_nonconvergence_exit_2(panel_csv, capsys):
    code, out, err = run(
        capsys, "fit", panel_csv, "--fixed", "total_time", "total_cost",
        "--noconstant", "--maxiter", 1,
    )
    assert code == 2
    assert "warning" in err.lower()
    assert "Classical random regret minimization fit" in out  # still emitted


def test_library_warning_is_one_stderr_line(tmp_path, capsys, rng):
    """A warning from the library, here the unconverged preliminary fit of
    a mixed fit capped at 2 iterations, reaches stderr as one ``warning:``
    line, without the source file and line that Python's display adds."""
    rows, _ = simulate_panel(rng, n_individuals=30, n_situations=4, n_alternatives=4,
                             fixed={"cost": -0.3},
                             random={"time": ("normal", -0.4, 0.3),
                                     "comfort": ("lognormal", -1.0, 0.4)})
    panel = tmp_path / "panel.csv"
    write_rows_csv(rows, panel)
    code, _, err = run(capsys, "fit", panel, "--fixed", "cost", "--rand", "time",
                       "comfort", "--ln", 1, "--nrep", 5, "--maxiter", 2)
    assert code == 2
    assert ("warning: preliminary classical fit did not converge; using its last "
            "iterate for starting values\n") in err
    assert ".py:" not in err


def test_singular_fit_json_is_strict(tmp_path, capsys, rng):
    """A constant attribute leaves the Hessian singular; the unconverged fit
    still writes its JSON, with null where the covariance is undefined."""
    rows, _ = simulate_panel(rng, n_individuals=20, n_situations=3,
                             n_alternatives=3, fixed={"total_time": -0.5})
    for row in rows:
        row["flat"] = "1.0"
    data = tmp_path / "flat.csv"
    write_rows_csv(rows, data)
    out_json = tmp_path / "fit.json"
    code, _, _ = run(capsys, "fit", data, "--fixed", "total_time", "flat",
                     "--noconstant", "--maxiter", 1, "--out", out_json)
    assert code == 2

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    payload = json.loads(out_json.read_text(), parse_constant=reject)
    for row in payload["estimates"]:
        assert row["se"] is None and row["ci_low"] is None
        assert row["ci_high"] is None


def fit_json(panel_csv, tmp_path, capsys, mixed=True):
    out_json = tmp_path / "fit.json"
    args = ["fit", panel_csv, "--noconstant", "--out", out_json]
    if mixed:
        args += ["--fixed", "total_cost", "--rand", "total_time",
                 "--nrep", 20]
    else:
        args += ["--fixed", "total_time", "total_cost"]
    code, _, _ = run(capsys, *args)
    assert code == 0
    return out_json


def test_predict_appends_probability_column(panel_csv, tmp_path, capsys):
    fit = fit_json(panel_csv, tmp_path, capsys)
    out_csv = tmp_path / "pred.csv"
    code, _, err = run(
        capsys, "predict", panel_csv, "--fit", fit, "--out", out_csv,
    )
    assert code == 0
    with open(out_csv, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert all("pred_p" in row for row in rows)
    # probabilities sum to 1 within each choice situation
    sums = {}
    for row in rows:
        key = (row["id"], row["cs"])
        sums[key] = sums.get(key, 0.0) + float(row["pred_p"])
    assert all(abs(total - 1.0) <= 1e-10 for total in sums.values())
    # original columns survive untouched
    with open(panel_csv, newline="") as handle:
        original = list(csv.DictReader(handle))
    for before, after in zip(original, rows):
        for key, value in before.items():
            assert after[key] == value


def test_predict_copies_blank_lines_through(panel_csv, tmp_path, capsys):
    lines = panel_csv.read_text().splitlines(keepends=True)
    blank = tmp_path / "blank.csv"
    blank.write_text("".join(lines[:5] + ["\r\n"] + lines[5:9] + [",,,,,\r\n"]
                             + lines[9:] + ["\r\n"]))
    fit = fit_json(blank, tmp_path, capsys, mixed=False)
    out_csv = tmp_path / "pred.csv"
    code, _, _ = run(capsys, "predict", blank, "--fit", fit, "--out", out_csv)
    assert code == 0
    with open(blank, newline="") as handle:
        before = list(csv.reader(handle))
    with open(out_csv, newline="") as handle:
        after = list(csv.reader(handle))
    assert after[0] == before[0] + ["pred_p"]
    assert len(after) == len(before)
    for old, new in zip(before[1:], after[1:]):
        if any(cell.strip() for cell in old):
            assert new[:-1] == old
            assert 0.0 < float(new[-1]) < 1.0
        else:
            assert new == old


def quote_ids(text):
    return text.replace(b"\r\n1,", b'\r\n"1",').replace(b"total_cost", b'"total_cost"')


@pytest.mark.parametrize("edit", [
    lambda text: b"\xef\xbb\xbf" + text,
    lambda text: text,
    lambda text: text.replace(b"\r\n", b"\n"),
    lambda text: text.replace(b"\r\n", b"\r").rstrip(b"\r"),
    lambda text: text.replace(b"\r\n", b"\n\r\n, ,,\n", 3),
    quote_ids,
], ids=["bom", "crlf", "lf", "cr_no_last_break", "blank_rows", "quoted"])
def test_predict_writes_the_csv_module_copy(panel_csv, tmp_path, capsys, edit):
    """predict writes the bytes of the csv module's row by row copy of its
    data file, with each loaded row's probability appended."""
    from mixrrm.dataset import load_long_csv
    from mixrrm.estimation import load_fit_json
    from mixrrm.postestimation import predict_rows

    data = tmp_path / "data.csv"
    data.write_bytes(edit(panel_csv.read_bytes()))
    fit = fit_json(data, tmp_path, capsys)
    code, _, err = run(capsys, "predict", data, "--fit", fit, "--out", tmp_path / "got.csv")
    assert code == 0, err
    rows, probs = predict_rows(load_long_csv(data, attr_cols=["total_cost", "total_time"]),
                               load_fit_json(fit))
    csv_copy_with_column(data, tmp_path / "want.csv", "pred_p",
                         dict(zip(rows.tolist(), probs.tolist(), strict=True)))
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


@pytest.mark.parametrize("edit", [lambda text: text, quote_ids], ids=["plain", "quoted"])
def test_predict_opens_its_data_file_once(panel_csv, tmp_path, capsys, monkeypatch, edit):
    """predict reads its data file once: the loader and the copy share the
    text, whether the copy joins lines or runs the csv module."""
    data = tmp_path / "data.csv"
    data.write_bytes(edit(panel_csv.read_bytes()))
    fit = fit_json(data, tmp_path, capsys)
    opened = []

    def counted_open(file, *args, opener=builtins.open, **kwargs):
        opened.append(Path(file))
        return opener(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counted_open)
    code, _, err = run(capsys, "predict", data, "--fit", fit, "--out", tmp_path / "got.csv")
    monkeypatch.undo()
    assert code == 0, err
    assert opened.count(data) == 1
    assert opened.count(tmp_path / "got.csv") == 1


@pytest.mark.parametrize("command", ["fit", "predict"])
def test_row_wider_than_the_header_exit_1(panel_csv, tmp_path, capsys, command):
    """A data row with a cell past the header, as a trailing comma makes,
    is refused by its row number; predict writes no file."""
    fit = fit_json(panel_csv, tmp_path, capsys)
    lines = panel_csv.read_bytes().split(b"\r\n")
    lines[4] += b","
    wider = tmp_path / "wider.csv"
    wider.write_bytes(b"\r\n".join(lines))
    out = tmp_path / "out"
    argv = {"fit": ["fit", wider, "--fixed", "total_cost", "--rand", "total_time",
                    "--noconstant", "--out", out],
            "predict": ["predict", wider, "--fit", fit, "--out", out]}[command]
    code, _, err = run(capsys, *argv)
    assert (code, err) == (1, "error: row 5: expected 6 fields, got 7\n")
    assert not out.exists()


@pytest.mark.parametrize("alias", ["panel.csv", "link.csv"])
def test_predict_refuses_to_write_over_its_data(panel_csv, tmp_path, capsys, alias):
    fit = fit_json(panel_csv, tmp_path, capsys)
    if alias == "link.csv":
        (tmp_path / alias).symlink_to(panel_csv)
    before = panel_csv.read_bytes()
    code, out, err = run(capsys, "predict", panel_csv, "--fit", fit,
                         "--out", tmp_path / alias)
    assert code == 1
    assert err.startswith("error: --out") and "data file" in err
    assert panel_csv.read_bytes() == before


@pytest.mark.parametrize("case", ["directory", "missing_parent"])
@pytest.mark.parametrize("command", ["fit", "predict", "betas", "reshape"])
def test_output_path_is_checked_before_any_work(panel_csv, tmp_path, capsys,
                                                command, case):
    """An output path that is a directory, or whose directory does not
    exist, is refused with exit 1 before any work: ``fit`` is given the
    panel and prints no summary, and the other commands are given a data
    file that does not exist and never get to read it."""
    fit = fit_json(panel_csv, tmp_path, capsys)
    absent = tmp_path / "absent.csv"
    argv = {
        "fit": ["fit", panel_csv, "--fixed", "total_time", "--noconstant", "--out"],
        "predict": ["predict", absent, "--fit", fit, "--out"],
        "betas": ["betas", absent, "--fit", fit, "--replace", "--saving"],
        "reshape": ["reshape", absent, "--stubs", "tt=tt", "--ids", "id", "cs",
                    "--alt-count", 2, "--out"],
    }[command]
    target = tmp_path / "out"
    if case == "directory":
        target.mkdir()
        message = f"{target} is a directory"
    else:
        target = target / "result"
        message = f"{target}: its directory does not exist"
    before = sorted(tmp_path.rglob("*"))
    code, out, err = run(capsys, *argv, target)
    assert code == 1 and out == ""
    assert err == f"error: {argv[-1]} {message}\n"
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("alias", ["same", "link"])
@pytest.mark.parametrize("command", ["fit", "predict", "betas", "reshape"])
def test_no_command_writes_over_a_file_it_reads(panel_csv, tmp_path, capsys,
                                                command, alias):
    """An output that is the data or fit file, by its own path or through a
    symlink, is refused before anything is read or written."""
    fit = fit_json(panel_csv, tmp_path, capsys, mixed=False)
    wide = tmp_path / "wide.csv"
    wide.write_text("id,cs,tt1,tt2,choice\n1,1,10,15,2\n")
    argv, source = {
        "fit": (["fit", panel_csv, "--fixed", "total_time", "--noconstant",
                 "--out"], panel_csv),
        "predict": (["predict", panel_csv, "--fit", fit, "--out"], fit),
        "betas": (["betas", panel_csv, "--fit", fit, "--replace", "--saving"], fit),
        "reshape": (["reshape", wide, "--stubs", "tt=tt", "--ids", "id", "cs",
                     "--alt-count", 2, "--out"], wide),
    }[command]
    target = source
    if alias == "link":
        target = tmp_path / "link"
        target.symlink_to(source)
    before = source.read_bytes()
    code, out, err = run(capsys, *argv, target)
    assert code == 1 and out == ""
    kind = "fit" if source == fit else "data"
    assert err == f"error: {argv[-1]} {target} is the {kind} file it reads\n"
    assert source.read_bytes() == before


def test_predict_spec_mismatch_exit_1(panel_csv, tmp_path, capsys, rng):
    fit = fit_json(panel_csv, tmp_path, capsys)
    other_rows, _ = simulate_panel(rng, n_individuals=5, n_situations=2,
                                   n_alternatives=3, fixed={"price": -0.2})
    other_csv = tmp_path / "other.csv"
    write_rows_csv(other_rows, other_csv)
    code, out, err = run(
        capsys, "predict", other_csv, "--fit", fit, "--out",
        tmp_path / "nope.csv",
    )
    assert code == 1
    assert "error" in err.lower()


@pytest.mark.parametrize("command", ["predict", "betas"])
@pytest.mark.parametrize("flags", [["--burn", "-1"], ["--nrep", "0"]])
def test_draw_option_checked_when_fit_loads(panel_csv, tmp_path, capsys,
                                            command, flags):
    # the data file does not exist: the option is rejected before it is read
    fit = fit_json(panel_csv, tmp_path, capsys)
    out_flag = "--out" if command == "predict" else "--saving"
    code, out, err = run(capsys, command, tmp_path / "absent.csv", "--fit", fit,
                         out_flag, tmp_path / "o.csv", *flags)
    assert code == 1
    assert flags[0].lstrip("-") in err and "absent" not in err
    assert out == ""


@pytest.mark.parametrize("command", ["predict", "betas"])
def test_classical_fit_refuses_given_nrep_below_1(panel_csv, tmp_path, capsys,
                                                  command):
    # a classical fit stores nrep 1, and a given --nrep 0 is refused as fit
    # refuses it, before the (absent) data file is read
    fit = fit_json(panel_csv, tmp_path, capsys, mixed=False)
    assert json.loads(fit.read_text())["nrep"] == 1
    out_flag = "--out" if command == "predict" else "--saving"
    code, out, err = run(capsys, command, tmp_path / "absent.csv", "--fit", fit,
                         out_flag, tmp_path / "o.csv", "--nrep", "0")
    assert code == 1
    assert "nrep" in err and "absent" not in err
    assert out == ""


@pytest.mark.parametrize("burn", ["9223372036854775800", "99999999999999999999"])
@pytest.mark.parametrize("command", ["fit", "predict"])
def test_burn_past_int64_is_one_error_line(panel_csv, tmp_path, capsys, command, burn):
    """A --burn that takes the Halton indices past the int64 range exits 1
    with one error line.  The command runs in a child process with a
    timeout, so a hang fails the test instead of stalling it."""
    if command == "fit":
        argv = ["fit", panel_csv, "--fixed", "total_cost", "--rand", "total_time",
                "--noconstant", "--nrep", 5]
    else:
        argv = ["predict", panel_csv, "--fit", fit_json(panel_csv, tmp_path, capsys),
                "--out", tmp_path / "pred.csv"]
    proc = subprocess.run(
        [sys.executable, "-m", "mixrrm.cli", *map(str, argv), "--burn", burn],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "int64" in proc.stderr
    assert not (tmp_path / "pred.csv").exists()


def test_burn_rounding_halton_to_one_is_one_error_line(panel_csv):
    """A --burn within the int64 range but so large that a Halton element
    rounds to 1.0 exits 1 with one error line naming the burn."""
    proc = subprocess.run(
        [sys.executable, "-m", "mixrrm.cli", "fit", str(panel_csv), "--fixed",
         "total_cost", "--rand", "total_time", "--noconstant", "--nrep", "5",
         "--burn", "18014398509481974"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "burn 18014398509481974" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.fixture
def wide_panel_csv(tmp_path, rng):
    """1000 individuals with one random coefficient, so 10**11 draws each
    are 8e14 bytes (past 2**49), which numpy fails to allocate at once."""
    rows, _ = simulate_panel(rng, n_individuals=1000, n_situations=1,
                             n_alternatives=3, fixed={"total_cost": -0.3},
                             random={"total_time": ("normal", -0.5, 0.2)})
    path = tmp_path / "wide.csv"
    write_rows_csv(rows, path)
    return path


def assert_draw_set_refused(code, out, err, nrep):
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "1000 individuals x 1 random coefficients" in err
    assert f"x {nrep} draws" in err


# 10**11 runs out of memory, 10**17 overflows the array size and 10**19 the
# int64 dimension; each is one numpy error, raised before any byte is written
@pytest.mark.parametrize("nrep", [10**11, 10**17, 10**19])
def test_fit_draw_set_too_large_exit_1(wide_panel_csv, tmp_path, capsys, nrep):
    out_json = tmp_path / "fit.json"
    result = run(capsys, "fit", wide_panel_csv, "--fixed", "total_cost", "--rand",
                 "total_time", "--noconstant", "--nrep", nrep, "--out", out_json)
    assert_draw_set_refused(*result, nrep)
    assert not out_json.exists()


@pytest.mark.parametrize("command, nrep", [("predict", 10**11), ("betas", 10**17)])
def test_draw_set_too_large_exit_1_when_fit_loads(panel_csv, wide_panel_csv, tmp_path,
                                                  capsys, command, nrep):
    fit = fit_json(panel_csv, tmp_path, capsys)
    out_flag = "--out" if command == "predict" else "--saving"
    result = run(capsys, command, wide_panel_csv, "--fit", fit, out_flag,
                 tmp_path / "o.csv", "--nrep", nrep)
    assert_draw_set_refused(*result, nrep)
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("edit, field", [
    (lambda p: p.pop("model"), "model"),
    (lambda p: p.pop("schema"), "schema"),
    (lambda p: p["model"].update(ln_count="1"), "model.ln_count"),
])
def test_bad_fit_file_names_file_and_field(panel_csv, tmp_path, capsys, edit, field):
    fit = fit_json(panel_csv, tmp_path, capsys)
    payload = json.loads(fit.read_text())
    edit(payload)
    fit.write_text(json.dumps(payload))
    code, _, err = run(capsys, "lognormal", "--fit", fit, "--attr", "total_time")
    assert code == 1
    assert f"fit.json: field '{field}'" in err


def test_betas_writes_table_and_plot(panel_csv, tmp_path, capsys):
    fit = fit_json(panel_csv, tmp_path, capsys)
    saving = tmp_path / "betas.csv"
    code, _, err = run(
        capsys, "betas", panel_csv, "--fit", fit, "--saving", saving, "--plot",
    )
    assert code == 0
    with open(saving, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 40  # one row per individual
    assert list(rows[0]) == ["id", "total_time"]
    assert (tmp_path / "total_time_hist.svg").exists()


def test_betas_refuses_existing_file(panel_csv, tmp_path, capsys):
    fit = fit_json(panel_csv, tmp_path, capsys)
    saving = tmp_path / "betas.csv"
    code, _, _ = run(capsys, "betas", panel_csv, "--fit", fit,
                     "--saving", saving)
    assert code == 0
    code, _, err = run(capsys, "betas", panel_csv, "--fit", fit,
                       "--saving", saving)
    assert code == 1
    assert "pass --replace" in err
    code, _, _ = run(capsys, "betas", panel_csv, "--fit", fit,
                     "--saving", saving, "--replace")
    assert code == 0


@pytest.mark.parametrize("case, message", [
    ("saving_exists", "b.csv exists; pass --replace"),
    ("plot_exists", "total_time_hist.svg exists; pass --replace"),
    ("unknown_attr", "--attrs 'nope' is not a random attribute"),
    ("repeated_attr", "--attrs names an attribute twice"),
    ("classical_fit", "fit has no random coefficients"),
    ("saving_is_plot", "name the same file"),
    ("saving_is_plot_replace", "name the same file"),
])
def test_betas_checks_outputs_and_attrs_before_reading_data(
        panel_csv, tmp_path, capsys, case, message):
    # the data file does not exist: every refusal comes before it is read
    fit = fit_json(panel_csv, tmp_path, capsys, mixed=case != "classical_fit")
    # a --saving that is one of the plots is refused, --replace or not
    saving = "total_time_hist.svg" if case.startswith("saving_is_plot") else "b.csv"
    argv = ["betas", tmp_path / "absent.csv", "--fit", fit,
            "--saving", tmp_path / saving, "--plot"]
    if case == "saving_is_plot_replace":
        argv.append("--replace")
    if case == "saving_exists":
        (tmp_path / "b.csv").write_text("keep me\n")
    if case == "plot_exists":
        (tmp_path / "total_time_hist.svg").write_text("keep me\n")
    argv += {"unknown_attr": ["--attrs", "nope"],
             "repeated_attr": ["--attrs", "total_time", "total_time"]}.get(case, [])
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and message in err and "absent" not in err
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    if case.startswith("saving_is_plot"):
        assert err == (f"error: --saving {tmp_path / saving} and plot "
                       f"{tmp_path / saving} name the same file\n")


@pytest.mark.parametrize("command, out_flag", [("predict", "--out"),
                                               ("betas", "--saving")])
def test_fit_with_other_alternative_labels_is_refused(
        panel_csv, tmp_path, capsys, command, out_flag):
    """A fit with constants on alternatives 1-3 does not apply to the same
    panel with alternative 3 relabelled 4: its constants name other
    alternatives, though the parameter counts agree."""
    fit = tmp_path / "fit.json"
    code, _, _ = run(capsys, "fit", panel_csv, "--fixed", "total_cost",
                     "--rand", "total_time", "--nrep", 5, "--out", fit)
    assert code == 0
    with open(panel_csv, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert {row["altern"] for row in rows} == {"1", "2", "3"}
    for row in rows:
        row["altern"] = row["altern"].replace("3", "4")
    relabelled = tmp_path / "relabelled.csv"
    write_rows_csv(rows, relabelled)
    out = tmp_path / "out.csv"
    code, stdout, err = run(capsys, command, relabelled, "--fit", fit, out_flag, out)
    assert code == 1 and stdout == ""
    assert err == ("error: alternative labels differ between the fit and "
                   "this dataset\n")
    assert not out.exists()


def test_betas_replace_overwrites_plot(panel_csv, tmp_path, capsys):
    fit = fit_json(panel_csv, tmp_path, capsys)
    svg = tmp_path / "total_time_hist.svg"
    svg.write_text("keep me\n")
    code, _, _ = run(capsys, "betas", panel_csv, "--fit", fit,
                     "--saving", tmp_path / "b.csv", "--plot", "--replace")
    assert code == 0
    assert svg.read_text().startswith("<svg")


@pytest.mark.parametrize("alias", ["panel.csv", "link.csv"])
def test_betas_refuses_to_write_over_its_data(panel_csv, tmp_path, capsys, alias):
    fit = fit_json(panel_csv, tmp_path, capsys)
    if alias == "link.csv":
        (tmp_path / alias).symlink_to(panel_csv)
    before = panel_csv.read_bytes()
    # refused before the fit is read: a missing fit file gives the same error,
    # and without --replace the message still names the data file
    missing = tmp_path / "missing.json"
    for fit_file, replace in ((fit, "--replace"), (missing, "--replace"), (fit, "--plot")):
        code, out, err = run(capsys, "betas", panel_csv, "--fit", fit_file,
                             "--saving", tmp_path / alias, replace)
        assert code == 1
        assert err.startswith("error: --saving") and "data file" in err
        assert panel_csv.read_bytes() == before
    # a histogram path that names the data file is refused too, --replace or not
    data = tmp_path / "total_time_hist.svg"
    if alias == "link.csv":
        data.symlink_to(panel_csv)
    else:
        data.write_bytes(before)
    for replace in ([], ["--replace"]):
        code, out, err = run(capsys, "betas", data, "--fit", fit,
                             "--saving", tmp_path / "b.csv", "--plot", *replace)
        assert code == 1
        assert err.startswith("error: plot") and "data file" in err
        assert data.read_bytes() == before and not (tmp_path / "b.csv").exists()


@pytest.mark.parametrize("content", ["id,cs,altern,choice,total_time\n", "\n\n \n"],
                         ids=["header_only", "blank_lines"])
@pytest.mark.parametrize("command", ["fit", "predict", "betas"])
def test_data_file_without_rows_is_empty_input(panel_csv, tmp_path, capsys,
                                               command, content):
    empty = tmp_path / "empty.csv"
    empty.write_text(content)
    if command == "fit":
        argv = ["fit", empty, "--fixed", "total_time", "--noconstant"]
    else:
        fit = fit_json(panel_csv, tmp_path, capsys)
        flag = "--out" if command == "predict" else "--saving"
        argv = [command, empty, "--fit", fit, flag, tmp_path / "out.csv"]
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err == f"error: {empty}: no data row after the header\n"
    assert not (tmp_path / "out.csv").exists()


def test_betas_classical_fit_exit_1(panel_csv, tmp_path, capsys):
    fit = fit_json(panel_csv, tmp_path, capsys, mixed=False)
    code, out, err = run(
        capsys, "betas", panel_csv, "--fit", fit,
        "--saving", tmp_path / "b.csv",
    )
    assert code == 1
    assert "no random coefficients" in err


def lognormal_fit_json(panel_csv, tmp_path, capsys):
    out_json = tmp_path / "lnfit.json"
    code, _, _ = run(
        capsys, "fit", panel_csv, "--fixed", "total_cost",
        "--rand", "total_time", "--ln", 1, "--noconstant", "--nrep", 20,
        "--out", out_json,
    )
    assert code == 0
    return out_json


def test_lognormal_table_default_sign(panel_csv, tmp_path, capsys):
    fit = lognormal_fit_json(panel_csv, tmp_path, capsys)
    code, out, _ = run(capsys, "lognormal", "--fit", fit,
                       "--attr", "total_time")
    assert code == 0
    assert "sign +1" in out
    assert "median" in out and "mean" in out and "sd" in out
    # --threads is accepted after every command name
    again = run(capsys, "lognormal", "--fit", fit, "--attr", "total_time",
                "--threads", 2)
    assert again[:2] == (0, out)


def strict_json(text):
    """Parse ``text``, refusing NaN and infinities, which JSON lacks."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_z_is_null_in_a_strict_fit_json(tmp_path):
    """A z statistic past the float range is written as null with p 0, and
    saving it warns of no overflow."""
    from mixrrm.estimation import FitResult, save_fit_json
    from mixrrm.regret import ModelSpec

    fit = FitResult(ModelSpec(fixed_attrs=("a",)), (1, 2), np.array([5e307]), -1.0,
                    4, 8, 0.01 * np.eye(1), "hessian", 95.0, True, 3, 0.0, 1, 0)
    save_fit_json(fit, tmp_path / "fit.json")
    (row,) = strict_json((tmp_path / "fit.json").read_text())["estimates"]
    assert (row["z"], row["p"]) == (None, 0.0)


def bench_panel(workload, tmp_path, monkeypatch):
    """Seed-1 panel 0 of a benchmark workload, written to ``panel.csv``, and
    the workload."""
    workloads = load_bench_module("workloads", monkeypatch)
    spec, data = workloads.WORKLOADS[workload], tmp_path / "panel.csv"
    workloads.write_workload(spec, 1, 0, data)
    return spec, data


def test_gradient_that_is_not_finite_is_null_in_the_fit_json(tmp_path, monkeypatch,
                                                             capsys):
    """With ``tt`` scaled by 1e307 the fit stops at a gradient that is not
    finite and exits 2; its JSON is strict, with the gradient norm null, and
    read back as NaN by every command that loads a fit."""
    from mixrrm.estimation import load_fit_json

    _, data = bench_panel("recovery", tmp_path, monkeypatch)
    with open(data, newline="") as handle:
        rows = list(csv.DictReader(handle))
    for row in rows:
        row["tt"] = repr(float(row["tt"]) * 1e307)
    write_rows_csv(rows, data)
    fit = tmp_path / "fit.json"
    code, _, _ = run(capsys, "fit", data, "--fixed", "tc", "--rand", "tt",
                     "--noconstant", "--nrep", 20, "--out", fit)
    assert code == 2
    assert strict_json(fit.read_text())["gradient_norm"] is None
    assert np.isnan(load_fit_json(fit).gradient_norm)
    assert run(capsys, "predict", data, "--fit", fit, "--out", tmp_path / "p.csv")[0] == 0
    assert run(capsys, "betas", data, "--fit", fit, "--saving", tmp_path / "b.csv")[0] == 0
    assert run(capsys, "lognormal", "--fit", fit, "--attr", "tt") == (
        1, "", "error: 'tt' is not a log-normal random attribute of this fit\n")


def test_lognormal_json_writes_infinite_standard_errors_as_null(tmp_path, monkeypatch,
                                                                capsys):
    """With the covariance of comfort's location and scale infinite, the
    log-normal summary of a benchmark fit exits 0 with one strict JSON line
    whose standard errors are null."""
    spec, data = bench_panel("wide_asc", tmp_path, monkeypatch)
    fit = tmp_path / "fit.json"
    assert run(capsys, *spec.fit_argv(data, fit))[0] == 0
    payload = json.loads(fit.read_text())
    names = [row["name"] for row in payload["estimates"]]
    b, s = names.index("comfort"), names.index("sd.comfort")
    payload["covariance"][b][s] = payload["covariance"][s][b] = float("inf")
    fit.write_text(json.dumps(payload))
    code, out, err = run(capsys, "lognormal", "--fit", fit, "--attr", "comfort", "--json")
    assert (code, err, out.count("\n")) == (0, "", 1)
    summary = strict_json(out)
    assert [summary[f"{m}_se"] for m in ("median", "mean", "sd")] == [None] * 3
    assert all(math.isfinite(summary[m]) for m in ("median", "mean", "sd"))


def test_lognormal_json_roundtrip(panel_csv, tmp_path, capsys):
    fit = lognormal_fit_json(panel_csv, tmp_path, capsys)
    code, out, _ = run(capsys, "lognormal", "--fit", fit,
                       "--attr", "total_time", "--negate", "--json")
    assert code == 0
    payload = strict_json(out)
    assert payload["sign"] == -1
    assert payload["median"] < 0 and payload["mean"] < 0
    assert payload["sd"] >= 0
    assert json.loads(json.dumps(payload)) == payload
    # a fit without a covariance has no standard errors: null, as in the fit
    fit_payload = json.loads(fit.read_text())
    fit_payload["covariance"] = [[None] * 3] * 3
    fit.write_text(json.dumps(fit_payload))
    code, out, _ = run(capsys, "lognormal", "--fit", fit,
                       "--attr", "total_time", "--json")
    assert code == 0
    no_se = strict_json(out)
    assert [no_se[f"{m}_se"] for m in ("median", "mean", "sd")] == [None] * 3
    assert (no_se["median"], no_se["sd"]) == (-payload["median"], payload["sd"])


def test_lognormal_fit_file_model_checked(panel_csv, tmp_path, capsys):
    fit = lognormal_fit_json(panel_csv, tmp_path, capsys)
    payload = json.loads(fit.read_text())
    payload["model"]["ln_count"] = 3
    fit.write_text(json.dumps(payload))
    code, out, err = run(capsys, "lognormal", "--fit", fit, "--attr", "total_time")
    assert (code, out) == (1, "")
    assert err == f"error: {fit}: field 'model': ln_count 3 outside 0..1\n"


def test_lognormal_overflowing_location_exit_1(panel_csv, tmp_path, capsys):
    fit = lognormal_fit_json(panel_csv, tmp_path, capsys)
    payload = json.loads(fit.read_text())
    payload["theta"][1] = 800.0  # total_time's location: exp(800) overflows
    fit.write_text(json.dumps(payload))
    code, out, err = run(capsys, "lognormal", "--fit", fit,
                         "--attr", "total_time")
    assert code == 1
    assert out == ""
    assert "total_time" in err
    assert "Traceback" not in err


def test_lognormal_wrong_attr_exit_1(panel_csv, tmp_path, capsys):
    fit = fit_json(panel_csv, tmp_path, capsys)  # normal, not log-normal
    code, _, err = run(capsys, "lognormal", "--fit", fit,
                       "--attr", "total_time")
    assert code == 1
    assert "error" in err.lower()


def test_reshape_roundtrip(tmp_path, capsys):
    wide = tmp_path / "wide.csv"
    with open(wide, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["id", "cs", "tt1", "tt2", "tt3", "choice"])
        writer.writerow([1, 1, "10", "15", "20", 2])
        writer.writerow([1, 2, "12", "11", "19", 1])
    out = tmp_path / "long.csv"
    code, _, err = run(
        capsys, "reshape", wide, "--out", out, "--stubs", "tt=total_time",
        "--ids", "id", "cs", "--alt-count", 3,
    )
    assert code == 0
    with open(out, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 6
    assert [r["choice"] for r in rows] == ["0", "1", "0", "1", "0", "0"]
    assert rows[0]["total_time"] == "10"
    code, _, _ = run(
        capsys, "reshape", wide, "--out", out, "--stubs", "tt=total_time",
        "--ids", "id", "cs", "--alt-count", 3, "--threads", 2,
    )
    assert code == 0


def test_reshape_reads_a_byte_order_mark(tmp_path, capsys):
    """A spreadsheet's "CSV UTF-8" export starts with a byte-order mark,
    which is not part of the first column's name."""
    wide = tmp_path / "wide.csv"
    wide.write_bytes(b"\xef\xbb\xbfid,cs,tt1,tt2,choice\r\n1,1,10,15,2\r\n")
    out = tmp_path / "long.csv"
    code, _, err = run(
        capsys, "reshape", wide, "--out", out, "--stubs", "tt=total_time",
        "--ids", "id", "cs", "--alt-count", 2,
    )
    assert code == 0, err
    assert out.read_bytes() == (b"id,cs,altern,choice,total_time\r\n"
                                b"1,1,1,0,10\r\n1,1,2,1,15\r\n")


def test_reshape_bad_choice_names_its_row(tmp_path, capsys):
    wide = tmp_path / "wide.csv"
    wide.write_text("id,cs,tt1,tt2,choice\n1,1,10,15,two\n")
    code, _, err = run(
        capsys, "reshape", wide, "--out", tmp_path / "long.csv",
        "--stubs", "tt=total_time", "--ids", "id", "cs", "--alt-count", 2,
    )
    assert code == 1
    assert err.startswith("error: row 2: column 'choice' value 'two'")


def test_reshape_alt_count_below_2_exit_1(tmp_path, capsys):
    """--alt-count 1 would write one-alternative situations, which the
    loader refuses, and 0 or -2 a header-only file: each exits 1 with one
    error line and writes nothing."""
    wide = tmp_path / "wide.csv"
    with open(wide, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["id", "tt1", "choice"])
        writer.writerow([1, "42.5", 1])
    out = tmp_path / "long.csv"
    for alt_count in (1, 0, -2):
        code, stdout, err = run(
            capsys, "reshape", wide, "--out", out, "--stubs", "tt=total_time",
            "--ids", "id", "--alt-count", alt_count,
        )
        assert (code, stdout) == (1, "")
        assert err == f"error: alt_count {alt_count} is below 2; a choice " \
                      "situation needs at least 2 alternatives\n"
        assert not out.exists()


def test_console_script_end_to_end(panel_csv, tmp_path):
    out_json = tmp_path / "fit.json"
    proc = subprocess.run(
        [sys.executable, "-m", "mixrrm.cli", "fit", str(panel_csv),
         "--fixed", "total_cost", "--rand", "total_time", "--noconstant",
         "--nrep", "10", "--threads", "2", "--out", str(out_json)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Mixed random regret minimization fit" in proc.stdout
    assert out_json.exists()


def test_fit_json_does_not_depend_on_thread_count(tmp_path, rng):
    """Fits run in child processes capped at 1 and at 2 numeric worker
    threads write byte-identical fit JSON, on a panel with 3 random
    attributes, one log-normal, and constants, and on one with a fixed and
    a lone normal attribute and no constants: the kernels' matrix products
    give every individual the same sums whatever the thread count."""
    models = [
        (dict(fixed={"cost": -0.3},
              random={"time": ("normal", -0.4, 0.3), "wait": ("normal", -0.2, 0.2),
                      "comfort": ("lognormal", -1.0, 0.4)}),
         ["--ln", "1", "--robust"]),
        (dict(fixed={"cost": -0.3}, random={"time": ("normal", -0.5, 0.2)}),
         ["--noconstant"]),
    ]
    for model, (truth, flags) in enumerate(models):
        rows, _ = simulate_panel(rng, n_individuals=60, n_situations=5,
                                 n_alternatives=4 - model, **truth)
        panel = tmp_path / f"panel{model}.csv"
        write_rows_csv(rows, panel)
        outputs = []
        for threads in (1, 2):
            out_json = tmp_path / f"fit{model}_{threads}.json"
            proc = subprocess.run(
                [sys.executable, "-m", "mixrrm.cli", "--threads", str(threads), "fit",
                 str(panel), "--fixed", *truth["fixed"], "--rand", *truth["random"],
                 "--nrep", "20", *flags, "--out", str(out_json)],
                capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(out_json.read_bytes())
        assert outputs[0] == outputs[1], truth


# --- aim 3's invariants on generated panels ------------------------------------


def run_quietly(*argv):
    """``main(argv)``'s exit code, stdout and stderr; any exception it raises
    propagates."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


@st.composite
def tiny_panels(draw):
    """CSV text of a long panel: 1-6 people of 1-3 situations of 1-4
    alternatives, labels from an odd pool, two attributes each extreme,
    ordinary or constant, and maybe a cluster column; with the pool.  One
    panel in four is one that only the per-cell reader reads: it has a
    blank row, quoted cells, ids written as floats (``2.0``) or a trailing
    text column."""
    pool = draw(st.sampled_from([(1, 2, 3, 4), (0, -1, 5, 9), (-1, -2, -3, -4),
                                 (0, 1, 2, 1_000_000)]))
    scales = [draw(st.sampled_from([0.0, 1e-8, 1.0, 1e3])) for _ in range(2)]
    clustered = draw(st.booleans())
    # a one-alternative situation, which the loader refuses, in one panel of 5
    fewest = draw(st.sampled_from([2, 2, 2, 2, 1]))
    odd = (draw(st.sampled_from(["blank", "quoted", "float_id", "text"]))
           if draw(st.sampled_from([False, False, False, True])) else None)
    text = ",note" if odd == "text" else ""
    lines = ["id,cs,altern,choice,a,b" + (",grp" if clustered else "") + text]
    for person in range(1, draw(st.integers(1, 6)) + 1):
        group = draw(st.sampled_from([7, 8]))
        ind = f"{person}.0" if odd == "float_id" else person
        for situation in range(1, draw(st.integers(1, 3)) + 1):
            labels = draw(st.lists(st.sampled_from(pool), min_size=fewest,
                                   max_size=4, unique=True))
            chosen = draw(st.integers(0, len(labels) - 1))
            for pos, label in enumerate(labels):
                x = [repr(scale * draw(st.sampled_from([-1.5, -0.2, 0.0, 0.7, 2.0]))
                          + (3.0 if scale == 0.0 else 0.0)) for scale in scales]
                if odd == "quoted":
                    x[0] = f'"{x[0]}"'
                lines.append(f"{ind},{situation},{label},{int(pos == chosen)},"
                             f"{x[0]},{x[1]}" + (f",{group}" if clustered else "")
                             + (",n/a" if text else ""))
    if odd == "blank":
        lines.insert(draw(st.integers(1, len(lines))), "")
    return "\n".join(lines) + "\n", pool, clustered


@settings(max_examples=25, deadline=None)
@given(tiny_panels(), st.data())
def test_generated_panels_keep_the_cli_invariants(panel, data):
    """fit -> predict -> betas --plot -> lognormal --json on a tiny panel
    under a drawn model and options: every command exits 0, 1 or 2 without
    raising, an exit 1 prints exactly one ``error:`` line, and predicted
    probabilities sum to 1 in every situation of a prediction that exits 0."""
    text, pool, clustered = panel
    fixed, rand, ln = data.draw(st.sampled_from([
        (["a"], [], 0), (["a", "b"], [], 0), ([], ["a"], 0), (["a"], ["b"], 0),
        (["b"], ["a"], 1), ([], ["a", "b"], 1)]))
    options = ["--nrep", data.draw(st.integers(1, 4)),
               "--burn", data.draw(st.integers(0, 3)),
               "--maxiter", data.draw(st.integers(0, 20))]
    if data.draw(st.booleans()):
        options.append("--noconstant")
    elif data.draw(st.booleans()):
        options.append(f"--basealternative={data.draw(st.sampled_from(pool))}")
    covariance = data.draw(st.sampled_from(["hessian", "robust", "cluster"]))
    if covariance == "robust":
        options.append("--robust")
    elif covariance == "cluster":
        options += ["--cluster", "grp" if clustered else "id"]

    def check(code, err):
        assert code in (0, 1, 2)
        if code == 1:
            assert [line.startswith("error:") for line in err.splitlines()].count(True) == 1

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "panel.csv").write_text(text)
        fit = tmp / "fit.json"
        code, _, err = run_quietly("fit", tmp / "panel.csv", "--fixed", *fixed,
                                   "--rand", *rand, "--ln", ln, *options, "--out", fit)
        check(code, err)
        if not fit.exists():
            return
        code, _, err = run_quietly("predict", tmp / "panel.csv", "--fit", fit,
                                   "--out", tmp / "pred.csv")
        check(code, err)
        if code == 0:
            with open(tmp / "pred.csv", newline="") as handle:
                rows = list(csv.DictReader(handle))
            totals = {}
            for row in rows:
                key = (row["id"], row["cs"])
                totals[key] = totals.get(key, 0.0) + float(row["pred_p"])
            np.testing.assert_allclose(list(totals.values()), 1.0, rtol=0, atol=1e-12)
        code, _, err = run_quietly("betas", tmp / "panel.csv", "--fit", fit,
                                   "--saving", tmp / "betas.csv", "--plot")
        check(code, err)
        code, _, err = run_quietly("lognormal", "--fit", fit, "--attr",
                                   (rand or fixed)[-1], "--json")
        check(code, err)


# --- aim 3 under huge inputs: theta or an attribute scaled by 10**k ------------

# the notes a command prints on stderr besides ``error:`` and ``warning:`` lines
NOTES = ("  fit written to ", "predictions written to ",
         "individual coefficients written to ", "plot written to ")
NOT_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


def json_leaves(value, key=None):
    """(key, value) of every number, string, bool or null in parsed JSON."""
    if isinstance(value, dict):
        for name, item in value.items():
            yield from json_leaves(item, name)
    elif isinstance(value, list):
        for item in value:
            yield from json_leaves(item, key)
    else:
        yield key, value


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_fit_whose_hessian_has_no_finite_inverse_exit_1(tmp_path):
    """A converged fit whose -H, of subnormal entries from attribute cells
    near 1e-151, passes Cholesky but inverts past the float range exits 1
    with one ``error:`` line, not 0 with a null standard error."""
    data = tmp_path / "panel.csv"
    data.write_text("id,cs,altern,choice,a,b\n"
                    "1,1,1,1,-1.5,-1.4999999999999999e-151\n"
                    "1,1,2,0,0.7,-1.4999999999999999e-151\n"
                    "2,1,1,1,0.7,-1.4999999999999999e-151\n"
                    "2,1,2,0,-1.5,0.0\n")
    code, _, err = run_quietly(
        "fit", data, "--fixed", "a", "--rand", "b", "--ln", "0", "--noconstant",
        "--nrep", "1", "--maxiter", "3", "--from", "[-0.1, -0.5, -0.5]",
        "--out", tmp_path / "fit.json")
    assert code == 1
    (line,) = err.splitlines()
    assert line.startswith("error: ") and "Hessian" in line, err


@st.composite
def scaled_commands(draw):
    """A command (``fit``, ``predict``, ``betas`` or ``lognormal``), a model,
    a small panel's CSV text and a parameter vector, with theta or one
    attribute column multiplied by 10**k, |k| <= 308.  A draw that scales a
    cell past the float range is rejected: ``predict`` copies every cell
    through, an ``inf`` the panel holds too."""
    command = draw(st.sampled_from(["fit", "predict", "betas", "lognormal"]))
    fixed, rand, ln = draw(st.sampled_from([
        (["a"], [], 0), (["a"], ["b"], 0), (["a"], ["b"], 1), ([], ["a", "b"], 1)]))
    target = draw(st.sampled_from(["theta", "a", "b"]))
    factor = 10.0 ** draw(st.integers(-308, 308)) * draw(st.sampled_from([1.0, -1.0]))
    theta = [draw(st.sampled_from([-0.5, -0.1, 0.2, 0.8]))
             for _ in range(len(fixed) + 2 * len(rand))]
    if target == "theta":
        theta = [value * factor for value in theta]
    lines = ["id,cs,altern,choice,a,b"]
    for person in range(1, draw(st.integers(2, 4)) + 1):
        for situation in range(1, draw(st.integers(1, 2)) + 1):
            labels = draw(st.sampled_from([(1, 2), (1, 2, 3)]))
            chosen = draw(st.sampled_from(labels))
            for label in labels:
                x = {name: draw(st.sampled_from([-1.5, 0.0, 0.7, 2.0]))
                     for name in ("a", "b")}
                if target in x:
                    x[target] *= factor
                    assume(math.isfinite(x[target]))
                lines.append(f"{person},{situation},{label},{int(label == chosen)},"
                             f"{x['a']!r},{x['b']!r}")
    return command, (fixed, rand, ln), "\n".join(lines) + "\n", theta


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=40, deadline=None)
@given(scaled_commands(), st.integers(1, 3), st.integers(0, 4))
def test_scaled_inputs_end_in_an_exit_code_not_a_traceback(case, nrep, maxiter):
    """With theta or an attribute scaled up to 10**308 and a RuntimeWarning
    an error, a fit file is saved and a command exits 0, 1 or 2 without
    raising; every stderr line is an ``error:`` or ``warning:`` line or the
    command's own note; every JSON file or stdout line a command writes is
    strict JSON; and what a command writes when it exits 0 holds no nan or
    inf."""
    from mixrrm.estimation import FitResult, save_fit_json
    from mixrrm.regret import ModelSpec

    command, (fixed, rand, ln), text, theta = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        data, fit, out = tmp / "panel.csv", tmp / "fit.json", tmp / "out.csv"
        data.write_text(text)
        if command == "fit":
            argv = ["fit", data, "--fixed", *fixed, "--rand", *rand, "--ln", ln,
                    "--noconstant", "--nrep", nrep, "--maxiter", maxiter,
                    "--from", json.dumps(theta), "--out", fit]
            outputs = [fit]
        else:
            spec = ModelSpec(fixed_attrs=fixed, random_attrs=rand, ln_count=ln)
            save_fit_json(FitResult(spec, (1, 2, 3), np.array(theta), -1.0, 4, 8,
                                    0.01 * np.eye(len(theta)), "hessian", 95.0,
                                    True, 3, 0.0, nrep, 0), fit)
            argv, outputs = {
                "predict": (["predict", data, "--fit", fit, "--out", out], [out]),
                "betas": (["betas", data, "--fit", fit, "--saving", out, "--plot"],
                          [out, *(tmp / f"{attr}_hist.svg" for attr in rand)]),
                "lognormal": (["lognormal", "--fit", fit, "--attr", (rand or fixed)[-1],
                               "--json"], []),
            }[command]
        code, stdout, err = run_quietly(*argv)
        assert code in (0, 1, 2)
        for line in err.splitlines():
            assert line.startswith(("error:", "warning:", *NOTES)), line
        # whatever the exit code, what is written as JSON is strict JSON
        for content in [*(path.read_text() for path in outputs
                          if path.suffix == ".json" and path.exists()),
                        *(line for line in stdout.splitlines() if line.startswith("{"))]:
            strict_json(content)
        if code == 0:
            written = [path.read_text() for path in outputs]
            if command == "lognormal":
                written.append(stdout)
            for content in written:
                assert not NOT_FINITE.search(content), content
                if content.startswith("{"):  # a JSON null is a nan written
                    leaves = list(json_leaves(json.loads(content)))
                    assert all(value is not None for key, value in leaves
                               if key != "base_alternative"), content
