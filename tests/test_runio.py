"""Run directories, manifests and exact CSV round-trips."""

import hashlib
import json
import math
import os
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

import plaplace as pl
from plaplace import runio, sobolev

# any float repr() writes, ±0, subnormals and the extremes drawn often; repr
# writes every nan as "nan", so the strategy draws that one nan
any_float = st.one_of(st.floats(allow_nan=False), st.just(math.nan),
                      st.sampled_from([0.0, -0.0, 5e-324, -5e-324,
                                       2.2250738585072014e-308,
                                       1.7976931348623157e308]))


@given(st.lists(st.tuples(any_float, any_float), min_size=1, max_size=50))
def test_csv_roundtrip_exact(tmp_path_factory, rows):
    """Every float column reads back bit for bit: bitwise comparison tells
    -0.0 from 0.0, which array_equal does not."""
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    a, b = np.array(rows).T
    pl.write_csv(path, ["a", "b"], [a, b])
    back = pl.read_csv(path)
    assert list(back) == ["a", "b"]
    for got, want in ((back["a"], a), (back["b"], b)):
        assert got.dtype == float
        assert got.tobytes() == np.ascontiguousarray(want).tobytes()


def test_csv_header_only_reads_back_empty(tmp_path):
    """A file with no data rows reads back as empty float columns, with no
    warning (numpy's loadtxt warns on empty input)."""
    path = pl.write_csv(tmp_path / "empty.csv", ["r", "u"], [[], []])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        back = pl.read_csv(path)
    assert list(back) == ["r", "u"]
    assert all(v.dtype == float and v.shape == (0,) for v in back.values())


def test_csv_text_columns_are_the_quoted_ones(tmp_path):
    """The columns write_csv quotes read back as str, commas kept, and the
    others as floats, in header order; a one-row file is read the same."""
    models = np.array(["expgamma:c=1,gamma=0.5", "powerlike:k=2", "hyperbolic"])
    b = np.array([1.0, 0.1, 0.01])
    path = pl.write_csv(tmp_path / "mixed.csv", ["b", "model", "n"],
                        [b, models, np.array([3, 4, 5])])
    back = pl.read_csv(path)
    assert list(back) == ["b", "model", "n"]
    assert back["model"].tolist() == models.tolist()
    assert back["b"].tobytes() == b.tobytes()
    assert back["n"].dtype == float and back["n"].tolist() == [3.0, 4.0, 5.0]
    path = pl.write_csv(tmp_path / "one.csv", ["model", "b"], [models[:1], b[:1]])
    back = pl.read_csv(path)
    assert back["model"].tolist() == [models[0]] and back["b"].tolist() == [1.0]


def test_csv_read_holds_columns_not_fields(tmp_path):
    """Reading back a 20,000 x 4 write_csv file (one int column) peaks under
    1 MB of tracemalloc, the 0.64 MB of the columns returned (views of
    loadtxt's table) and the parser's chunk; contiguous copies of the
    columns peaked at 1.29 MB, a str per field and per-row lists at 9.8 MB."""
    r = np.geomspace(1e-3, 1e3, 20_000)
    columns = [r, np.sin(r), np.arange(r.size), np.exp(-r)]
    path = pl.write_csv(tmp_path / "rows.csv", ["r", "s", "k", "e"], columns)
    tracemalloc.start()
    try:
        back = pl.read_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6
    for name, col in zip(["r", "s", "k", "e"], columns):
        assert back[name].tobytes() == col.astype(float).tobytes()


def test_sweep_csv_reads_back_with_text_column(tmp_path):
    descs = ["powerlike:k=2", "expgamma:c=1,gamma=0.5"]  # the second has a comma
    rows = [{"model": pl.descriptor_string(pl.make_model(d)), "n": 3, "p": 2.0,
             "b": b, "quotient": 4.5 + b, "err": 1e-9 * b, "flagged": b == 1.0}
            for d, b in zip(descs, (1.0, 0.1))]
    path = sobolev.export_sweep_csv({"rows": rows}, tmp_path / "quotients.csv")
    back = pl.read_csv(path)
    assert list(back) == ["model", "n", "p", "b", "quotient", "err", "flagged"]
    assert back["model"].tolist() == descs
    for key in ("n", "p", "b", "quotient", "err", "flagged"):
        assert back[key].dtype == float
        assert np.array_equal(back[key], [row[key] for row in rows])


def test_csv_rows_written_in_blocks(tmp_path):
    """20,000 rows of 4 columns (one of ints) are written a block at a
    time: the text of one pass over all rows, at a tracemalloc peak under
    1.2 MB, where formatting every column first peaked at 2.5 MB."""
    r = np.geomspace(1e-3, 1e3, 20_000)
    columns = [r, np.sin(r), np.arange(r.size), np.exp(-r)]
    path = tmp_path / "rows.csv"
    tracemalloc.start()
    try:
        pl.write_csv(path, ["r", "s", "k", "e"], columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.2e6
    text = "".join(",".join(map(repr, row)) + "\n"
                   for row in zip(*(c.tolist() for c in columns)))
    assert path.read_text() == "r,s,k,e\n" + text


def test_params_hash_deterministic():
    h1 = runio.params_hash("solve", {"n": 3, "p": 2.0})
    h2 = runio.params_hash("solve", {"p": 2.0, "n": 3})
    assert h1 == h2  # key order canonicalized
    assert h1 != runio.params_hash("solve", {"n": 3, "p": 2.5})
    assert h1 != runio.params_hash("classify", {"n": 3, "p": 2.0})


def test_rundir_success(tmp_path):
    with runio.RunDir("demo", {"x": 1}, root=tmp_path) as run:
        out = run.file("data.csv")
        pl.write_csv(out, ["v"], [[1.0, 2.0]])
        run.record(out)
    with open(run.file("manifest.json")) as fh:
        manifest = json.load(fh)
    assert manifest["status"] == "ok"
    assert manifest["error"] is None
    assert manifest["schema"] == runio.SCHEMA_VERSION
    assert manifest["deterministic"] is True
    # recorded hash matches an independent recomputation
    with open(out, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    assert manifest["outputs"]["data.csv"] == digest
    with open(os.path.join(tmp_path, "latest")) as fh:
        assert fh.read().strip() == run.name


def test_rundir_failure_still_writes_manifest(tmp_path):
    with pytest.raises(ValueError):
        with runio.RunDir("demo", {"x": 2}, root=tmp_path) as run:
            raise ValueError("boom")
    with open(run.file("manifest.json")) as fh:
        manifest = json.load(fh)
    assert manifest["status"] == "error"
    assert "boom" in manifest["error"]


def test_rundir_name_is_content_hash_prefix(tmp_path):
    with runio.RunDir("demo", {"x": 3}, root=tmp_path) as run:
        pass
    digest = runio.params_hash("demo", {"x": 3})
    assert run.name == f"demo-{digest[:12]}"


def test_default_output_root_env(monkeypatch, tmp_path):
    monkeypatch.setenv("PLAPLACE_RUNS", str(tmp_path / "elsewhere"))
    assert runio.default_output_root() == str(tmp_path / "elsewhere")
    monkeypatch.delenv("PLAPLACE_RUNS")
    assert "runs" in runio.default_output_root()
