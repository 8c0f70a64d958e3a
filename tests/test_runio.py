"""Run directories, manifests and exact CSV round-trips."""

import hashlib
import json
import os

import numpy as np
import pytest
from hypothesis import given, strategies as st

import plaplace as pl
from plaplace import runio, sobolev

finite_floats = st.floats(allow_nan=False, allow_infinity=False)


@given(st.lists(st.tuples(finite_floats, finite_floats), min_size=1,
                max_size=50))
def test_csv_roundtrip_exact(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    a = np.array([r[0] for r in rows])
    b = np.array([r[1] for r in rows])
    pl.write_csv(path, ["a", "b"], [a, b])
    back = pl.read_csv(path)
    assert np.array_equal(back["a"], a)
    assert np.array_equal(back["b"], b)


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
