"""Damaged text files and interrupted writes.

Every reader of a text format (results and classification CSV, INI
configuration) must turn truncated or bit-flipped input into a
``DeferBenchError``, never a raw traceback. The checkpoint writer and the
configuration echo must leave either the complete file or no file. A
dataset file with a non-finite feature is refused the same way.
"""

import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deferbench import atomic, cli, config, data, nnet, sweep
from deferbench.errors import ConfigError, DeferBenchError, FormatError
from deferbench.metrics import CurvePoint

# ---------------------------------------------------------------------------
# one well-formed file per text format
# ---------------------------------------------------------------------------

POINTS = [
    CurvePoint(0.25, 0.8125, 0.5, 0.9, 0.0625, 0.75, 0.875, "softmax", "noise", 1, 0,
               "threshold", 0.5),
    CurvePoint(1.0, None, 1.0, None, None, None, None, "one_stage", "id", 0, 2, "alpha", 0.8,
               "absent"),
    CurvePoint(None, None, None, method="swag", condition="blur", level=3, seed=1,
               param_kind="threshold", status="failed:CollectionError"),
]
ROWS = [
    CurvePoint(bacc=0.75, auc=0.875, pauc=0.0625, acc0=0.5, acc1=1.0, method="softmax",
               condition="id", level=0, seed=0),
    CurvePoint(method="bnn", condition="blur", level=5, seed=4, status="failed:DivergenceError"),
]


def _tables() -> dict:
    """File name -> bytes of results.csv holding POINTS and classification.csv
    holding ROWS, written as a run writes them."""
    with tempfile.TemporaryDirectory() as tmp:
        with sweep.open_tables(tmp) as (results, classification):
            sweep.write_results_csv(results, POINTS)
            sweep.write_classification_csv(classification, ROWS)
        return {name: Path(tmp, name).read_bytes()
                for name in (sweep.RESULTS_NAME, sweep.CLASSIFICATION_NAME)}


def _write_results(path):
    path.write_bytes(_tables()[sweep.RESULTS_NAME])


def _write_classification(path):
    path.write_bytes(_tables()[sweep.CLASSIFICATION_NAME])


def _write_ini(path):
    path.write_text(config.emit_config(config.RunConfig(n_seeds=2, methods=("bnn", "softmax"))))


FORMATS = {
    "results": (_write_results, sweep.read_results_csv),
    "classification": (_write_classification, sweep.read_classification_csv),
    "ini": (_write_ini, config.load_config),
}


@pytest.fixture(scope="module")
def blobs(tmp_path_factory) -> dict:
    root = tmp_path_factory.mktemp("formats")
    out = {}
    for name, (write, read) in FORMATS.items():
        path = root / name
        write(path)
        read(path)  # the undamaged file parses
        out[name] = path.read_bytes()
    return out


@pytest.fixture(scope="module")
def scratch(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("damaged") / "file"


def _read_only_deferbench_errors(name, blob, path):
    path.write_bytes(blob)
    try:
        FORMATS[name][1](path)
    except DeferBenchError:
        pass


@pytest.mark.parametrize("name", list(FORMATS))
def test_every_truncation_is_read_or_rejected(blobs, scratch, name):
    blob = blobs[name]
    for size in range(len(blob)):
        _read_only_deferbench_errors(name, blob[:size], scratch)


@pytest.mark.parametrize("name", list(FORMATS))
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_bit_flips_are_read_or_rejected(blobs, scratch, name, data):
    damaged = bytearray(blobs[name])
    bits = data.draw(st.lists(st.integers(0, 8 * len(damaged) - 1), min_size=1, max_size=4))
    for bit in bits:
        damaged[bit // 8] ^= 1 << (bit % 8)
    _read_only_deferbench_errors(name, bytes(damaged), scratch)


@pytest.mark.parametrize("name, error", [
    ("results", FormatError), ("classification", FormatError), ("ini", ConfigError),
])
def test_bytes_that_are_not_utf8_are_named(blobs, tmp_path, name, error):
    path = tmp_path / name
    path.write_bytes(blobs[name][:20] + b"\xff" + blobs[name][20:])
    with pytest.raises(error, match="UTF-8|utf-8"):
        FORMATS[name][1](path)


def test_field_over_the_csv_size_limit_is_a_format_error(tmp_path):
    path = tmp_path / "results.csv"
    path.write_text(",".join(sweep.RESULTS_COLUMNS) + "\n" + "x" * 200_000 + "\n")
    with pytest.raises(FormatError, match="field limit"):
        sweep.read_results_csv(path)


def test_classification_level_that_is_not_an_integer_names_the_row(tmp_path):
    path = tmp_path / "classification.csv"
    path.write_text(",".join(sweep.CLASSIFICATION_COLUMNS) + "\nsoftmax,id,x,0,,,,,,ok\n")
    with pytest.raises(FormatError, match="row 2"):
        sweep.read_classification_csv(path)


GOOD_ROWS = {
    "results": "softmax,id,0,0,threshold,0.5,0.25,0.75,0.8,0.1,0.7,0.8,0.3,ok",
    "classification": "softmax,id,0,0,0.8,0.1,0.75,0.7,0.8,ok",
}


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", "Infinity"])
@pytest.mark.parametrize("name, columns", [
    ("results", sweep.RESULTS_COLUMNS), ("classification", sweep.CLASSIFICATION_COLUMNS),
])
def test_non_finite_cell_names_the_row(tmp_path, name, columns, cell):
    # a run writes only finite numbers, so a non-finite cell is damage
    good = GOOD_ROWS[name]
    bad = good.replace(",0.75,", f",{cell},", 1)
    path = tmp_path / name
    path.write_text(",".join(columns) + f"\n{good}\n{bad}\n")
    with pytest.raises(FormatError, match=f"row 3: non-finite value '{cell}'"):
        FORMATS[name][1](path)


def test_cli_report_rejects_a_non_finite_rate(tmp_path, capsys):
    results = tmp_path / "results.csv"
    row = GOOD_ROWS["results"].replace(",0.25,", ",nan,", 1)
    results.write_text(",".join(sweep.RESULTS_COLUMNS) + f"\n{row}\n")
    out = tmp_path / "out"
    assert cli.main(["report", "--out", str(out), "--results", str(results)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "row 2" in err and "Traceback" not in err
    assert not out.exists() or not any(out.rglob("*.svg"))


NON_FINITE_INI = """\
[data]
n_samples = 300
positive_fraction = 0.05
spatial_shape = 8,8,1

[corruption]
levels = 1
"""


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_feature_names_the_row(tmp_path, capsys, value):
    # one bad pixel in row 5 of a 300-sample file: a run from it would train
    # on whichever minibatches drew that row, so the reader refuses the file
    ds = data.generate(data.SynthSpec(n_samples=300, positive_fraction=0.05,
                                      spatial_shape=(8, 8, 1)))
    ds.features[5, 17] = value
    path = tmp_path / "bad.dfd1"
    data.write_dataset(path, ds)
    with pytest.raises(FormatError, match="row 5 has a non-finite feature"):
        data.read_dataset(path)

    ini = tmp_path / "cfg.ini"
    ini.write_text(NON_FINITE_INI)
    out = tmp_path / "run"
    capsys.readouterr()
    assert cli.main(["inspect", str(path)]) == 1
    assert cli.main(["run", "--config", str(ini), "--out", str(out), "--data", str(path)]) == 1
    captured = capsys.readouterr()
    assert "feature_min" not in captured.out
    lines = captured.err.splitlines()
    assert lines == [f"error: {path}: row 5 has a non-finite feature"] * 2
    assert not (out / sweep.RESULTS_NAME).exists()
    assert not (out / sweep.CLASSIFICATION_NAME).exists()


# ---------------------------------------------------------------------------
# the command line reports damaged text as an error, exit code 1 or 2
# ---------------------------------------------------------------------------


def test_cli_reports_undecodable_results(blobs, tmp_path, capsys):
    results = tmp_path / "results.csv"
    results.write_bytes(blobs["results"] + b"\xff\n")
    assert cli.main(["inspect", str(results)]) == 1
    assert cli.main(["report", "--out", str(tmp_path), "--results", str(results)]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 2 and "Traceback" not in err


def test_cli_reports_undecodable_config(blobs, tmp_path, capsys):
    ini = tmp_path / "bad.ini"
    ini.write_bytes(b"\xff" + blobs["ini"])
    assert cli.main(["run", "--config", str(ini), "--out", str(tmp_path / "run")]) == 2
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the checkpoint writer and the configuration echo are atomic
# ---------------------------------------------------------------------------


@pytest.fixture
def failing_replace(monkeypatch):
    """Make the final rename of every atomic write to a file of the given name fail."""
    real = os.replace
    failing = set()

    def replace(src, dst):
        if Path(dst).name in failing:
            raise OSError(f"injected failure renaming onto {dst}")
        return real(src, dst)

    monkeypatch.setattr(atomic.os, "replace", replace)
    return failing


def assert_no_trace_of(directory: Path, name: str):
    assert not (directory / name).exists()
    assert not [p for p in directory.iterdir() if p.name.startswith(f".{name}.")]


def test_checkpoint_writer_failure_leaves_no_file(tmp_path):
    config_ = nnet.NetConfig(input_dim=3, hidden_dims=(2,), output_dim=2, seed=0)
    params = nnet.get_params(nnet.init_network(config_))
    # the section payload fails after the header and parameters are written
    with pytest.raises(TypeError):
        nnet.write_checkpoint(tmp_path / "m.dfb1", config_, params, {"bad": object()})
    assert list(tmp_path.iterdir()) == []


def test_config_echo_failure_leaves_no_file(tmp_path, failing_replace, capsys):
    failing_replace.add("config.ini")
    out = tmp_path / "run"
    assert cli.main(["run", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: injected")
    assert_no_trace_of(out, "config.ini")

