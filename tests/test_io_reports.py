"""Tensor/points file formats, input generators, and ledger reports."""

import json

import numpy as np
import pytest

import meshdft as md
from meshdft import reports, tensorio
from helpers import F64, F32, rand_tensor, run_kdft, run_fft, write_points_file


# -- tensor files -------------------------------------------------------------


@pytest.mark.parametrize("extents", [(6,), (3, 4, 2)])
def test_tensor_round_trip_f64(tmp_path, extents):
    x = rand_tensor(extents, seed=1)
    path = tmp_path / "t.bin"
    tensorio.write_tensor(path, x)
    back = tensorio.read_tensor(path)
    assert back.shape == extents
    assert np.array_equal(back.re, x.re)
    assert np.array_equal(back.im, x.im)


def test_tensor_round_trip_f32(tmp_path):
    x = rand_tensor((8,), seed=2).astype(np.float32)
    path = tmp_path / "t.bin"
    tensorio.write_tensor(path, x)
    back = tensorio.read_tensor(path)
    assert back.dtype == np.float32
    assert np.array_equal(back.re, x.re)


def test_tensor_payload_is_raw_interleaved(tmp_path):
    x = md.ComplexTensor([1.0, 2.0], [3.0, 4.0])
    path = tmp_path / "t.bin"
    tensorio.write_tensor(path, x)
    assert path.stat().st_size == 2 * x.size * 8
    raw = np.fromfile(path, dtype="<f8")
    assert np.array_equal(raw, [1.0, 3.0, 2.0, 4.0])
    header = json.loads((tmp_path / "t.bin.json").read_text())
    assert header == {
        "schema_version": 1,
        "dims": [2],
        "dtype": "float64",
        "layout": "row_major_interleaved_re_im",
    }


def test_read_tensor_missing_sidecar(tmp_path):
    path = tmp_path / "t.bin"
    path.write_bytes(b"\x00" * 32)
    with pytest.raises(FileNotFoundError):
        tensorio.read_tensor(path)


def test_read_tensor_bad_sidecars(tmp_path):
    path = tmp_path / "t.bin"
    tensorio.write_tensor(path, rand_tensor((4,), seed=3))
    side = tmp_path / "t.bin.json"

    side.write_text("{not json")
    with pytest.raises(md.ArgumentError):
        tensorio.read_tensor(path)

    side.write_bytes(b"\xff\xfe{}")
    with pytest.raises(md.ArgumentError, match="malformed sidecar"):
        tensorio.read_tensor(path)

    side.write_text(json.dumps({"dims": [4], "dtype": "float64"}))
    with pytest.raises(md.ArgumentError, match="layout"):
        tensorio.read_tensor(path)

    side.write_text(json.dumps(
        {"dims": [4], "dtype": "float64", "layout": "column_major"}))
    with pytest.raises(md.ArgumentError, match="layout"):
        tensorio.read_tensor(path)

    side.write_text(json.dumps(
        {"dims": [4], "dtype": "float16", "layout": tensorio.LAYOUT}))
    with pytest.raises(md.ArgumentError, match="dtype"):
        tensorio.read_tensor(path)


@pytest.mark.parametrize("sidecar", ['{"dims": "ab"}', '{"dims": 4}', "[4]"])
def test_read_tensor_malformed_dims_is_an_argument_error(tmp_path, sidecar):
    path = tmp_path / "t.bin"
    tensorio.write_tensor(path, rand_tensor((4,), seed=3))
    header = json.loads((tmp_path / "t.bin.json").read_text())
    doc = json.loads(sidecar)
    if isinstance(doc, dict):
        doc = {**header, **doc}
    (tmp_path / "t.bin.json").write_text(json.dumps(doc))
    with pytest.raises(md.ArgumentError, match="sidecar"):
        tensorio.read_tensor(path)


def test_read_tensor_truncated_payload(tmp_path):
    path = tmp_path / "t.bin"
    tensorio.write_tensor(path, rand_tensor((4,), seed=4))
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(md.DimensionError):
        tensorio.read_tensor(path)


def test_write_tensor_rejects_plain_arrays(tmp_path):
    with pytest.raises(md.ArgumentError):
        tensorio.write_tensor(tmp_path / "t.bin", np.zeros(4))


def test_remove_tensor(tmp_path):
    path = tmp_path / "t.bin"
    tensorio.write_tensor(path, rand_tensor((4,), seed=5))
    tensorio.remove_tensor(path)
    assert not path.exists()
    assert not (tmp_path / "t.bin.json").exists()
    tensorio.remove_tensor(path)  # idempotent


# -- points files -------------------------------------------------------------


def test_points_file_round_trip(tmp_path):
    pts = [
        md.SamplePoints.uniform(4),
        md.SamplePoints.explicit([0.5 + 0.5j, -1.0 + 0.0j]),
    ]
    path = tmp_path / "pts.json"
    write_points_file(path, pts)
    back = tensorio.read_points_file(path)
    assert len(back) == 2
    for orig, loaded in zip(pts, back):
        assert np.allclose(loaded.points, orig.points, atol=1e-15)


def test_points_file_malformed(tmp_path):
    path = tmp_path / "pts.json"
    path.write_text(json.dumps([[1.0, 0.0]]))
    with pytest.raises(md.ArgumentError):
        tensorio.read_points_file(path)
    path.write_text(json.dumps({"dims": [[[1.0]]]}))
    with pytest.raises(md.ArgumentError):
        tensorio.read_points_file(path)
    path.write_text(json.dumps({"dims": []}))
    with pytest.raises(md.ArgumentError):
        tensorio.read_points_file(path)


@pytest.mark.parametrize(
    "raw", [b'{"dims": ', b'{"dims": 5}', b'{"dims": "ab"}', b"\xff\xfe{}"]
)
def test_points_file_malformed_json_is_an_argument_error(tmp_path, raw):
    path = tmp_path / "pts.json"
    path.write_bytes(raw)
    with pytest.raises(md.ArgumentError, match="pts.json"):
        tensorio.read_points_file(path)


# -- generators ---------------------------------------------------------------


def test_generators():
    d = tensorio.gen_delta((4,))
    assert np.array_equal(d.re, [1, 0, 0, 0]) and not d.im.any()

    c = tensorio.gen_constant((2, 2), 2.5)
    assert np.array_equal(c.re, np.full((2, 2), 2.5))

    t = tensorio.gen_tone((8,), [3])
    assert np.allclose(t.to_complex(), np.exp(2j * np.pi * 3 * np.arange(8) / 8))

    t2 = tensorio.gen_tone((4, 8), [1, 2])
    cols = np.exp(2j * np.pi * np.arange(4) / 4)
    rows = np.exp(2j * np.pi * 2 * np.arange(8) / 8)
    assert np.allclose(t2.to_complex(), np.outer(cols, rows))

    with pytest.raises(md.ArgumentError):
        tensorio.gen_tone((4, 4), [1])

    r1 = tensorio.gen_random((8,), seed=9)
    r2 = tensorio.gen_random((8,), seed=9)
    r3 = tensorio.gen_random((8,), seed=10)
    assert np.array_equal(r1.re, r2.re) and np.array_equal(r1.im, r2.im)
    assert not np.array_equal(r1.re, r3.re)


def test_make_input_specs():
    assert np.array_equal(tensorio.make_input("delta", (4,)).re, [1, 0, 0, 0])
    assert tensorio.make_input("constant", (2,)).re[0] == 1.0
    assert tensorio.make_input("constant:2.5", (2,)).re[0] == 2.5
    tone = tensorio.make_input("tone:3", (4, 4))  # single freq broadcasts
    assert np.allclose(tone.to_complex(), tensorio.gen_tone((4, 4), [3, 3]).to_complex())
    pair = tensorio.make_input("tone:1,2", (4, 8))
    assert np.allclose(pair.to_complex(), tensorio.gen_tone((4, 8), [1, 2]).to_complex())
    rnd = tensorio.make_input("random", (4,), seed=3)
    assert np.array_equal(rnd.re, tensorio.gen_random((4,), 3).re)
    with pytest.raises(md.ArgumentError):
        tensorio.make_input("tone", (4,))
    with pytest.raises(md.ArgumentError):
        tensorio.make_input("chirp", (4,))


@pytest.mark.parametrize("spec", ["tone:abc", "tone:1.5", "tone:1,,2", "constant:abc"])
def test_make_input_rejects_malformed_spec(spec):
    with pytest.raises(md.ArgumentError, match=f"malformed generator '{spec}'"):
        tensorio.make_input(spec, (8,))


def test_make_input_rejects_negative_seed():
    with pytest.raises(md.ArgumentError, match="seed must be a non-negative int, got -1"):
        tensorio.make_input("random", (8,), seed=-1)


# -- work model and reports ---------------------------------------------------


def test_kdft_work_closed_form():
    for parts, want in ((2, 8192), (4, 4096), (8, 2048)):
        shape = md.ComputationShape(parts, 1, 1)
        assert reports.kdft_einsum_flops_per_core((64,), shape) == want


def test_fft_work_closed_forms():
    shape = md.ComputationShape(2, 2, 2)
    assert reports.fft_local_flops_per_core((8, 8, 8), shape) == 3 * 5 * 2 * 64
    assert reports.fft_einsum_flops_per_core((8, 8, 8), shape) == 3 * 4 * 2 * 64
    assert reports.expected_permutes((8, 8, 8), shape) == 3
    assert reports.expected_all_to_alls((8, 8, 8), "fft") == 3
    assert reports.expected_all_to_alls((8, 8, 8), "kdft") == 0


@pytest.mark.parametrize("algo", ["kdft", "fft"])
def test_expected_ledger_matches_live_run(algo):
    x = rand_tensor((8, 4), seed=20)
    runner = run_kdft if algo == "kdft" else run_fft
    _, _, mesh = runner(x, (2, 2))
    shape = md.ComputationShape(2, 2)
    assert mesh.ledger.as_dict() == reports.expected_ledger(algo, (8, 4), shape, F64)


def test_expected_ledger_precision_halves_bytes():
    shape = md.ComputationShape(4, 1, 1)
    full = reports.expected_ledger("kdft", (8,), shape, F64)
    half = reports.expected_ledger("kdft", (8,), shape, F32)
    assert half["bytes_moved"] * 2 == full["bytes_moved"]
    assert half["einsum_flops"] == full["einsum_flops"]


def test_per_core_division():
    assert reports.per_core(120, 8) == 15
    with pytest.raises(md.ArgumentError):
        reports.per_core(121, 8)


def test_scaling_rows_ideal_work():
    rows = reports.scaling_rows(
        [
            {"status": "ok", "einsum_flops_per_core": 8192, "num_cores": 2},
            {"status": "skipped: no fit", "num_cores": 3},
            {"status": "ok", "einsum_flops_per_core": 4096, "num_cores": 4},
            {"status": "ok", "einsum_flops_per_core": 2048, "num_cores": 8},
        ],
        "kdft",
    )
    assert [r["ideal_work"] for r in rows] == [8192, "", 4096, 2048]


def test_oracle_feasible_boundary():
    assert reports.oracle_feasible((4096,))
    assert reports.oracle_feasible((16, 16, 16))
    assert not reports.oracle_feasible((4097,))
    assert not reports.oracle_feasible((64, 64, 2))


def test_scaling_csv_writer(tmp_path):
    rows = [dict.fromkeys(reports.CSV_COLUMNS, 0)]
    rows[0].update(dims="64", shape="2x1x1", status="ok", extra="dropped")
    path = tmp_path / "s.csv"
    reports.write_scaling_csv(path, rows)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == ",".join(reports.CSV_COLUMNS)
    assert lines[1].startswith("64,2x1x1,0,ok,")
    assert "dropped" not in lines[1]


def test_scaling_json_writer(tmp_path):
    path = tmp_path / "s.json"
    doc = reports.write_scaling_json(path, "fft", "strong", "64", [{"status": "ok"}])
    loaded = json.loads(path.read_text())
    assert loaded == doc
    assert loaded["command"] == "scaling"
    assert loaded["algo"] == "fft"
    assert loaded["mode"] == "strong"
    assert loaded["rows"] == [{"status": "ok"}]
    assert loaded["work_model"] == reports.WORK_MODEL


def test_transform_report_schema():
    x = rand_tensor((8,), seed=21)
    _, _, mesh = run_kdft(x, (2,))
    shape = md.ComputationShape(2)
    rep = reports.transform_report(
        "kdft", (8,), shape, F64, "uniform", "random", mesh,
        oracle_error=1e-12, oracle_max_abs=3.5,
    )
    assert set(rep) == {
        "schema_version", "command", "algo", "dims", "shape", "num_cores",
        "precision", "sampling", "input", "ledger", "per_dimension",
        "work_model", "expected",
        "oracle",
    }
    assert "workers" not in rep
    assert rep["ledger"] == rep["expected"]
    assert rep["oracle"] == {"relative_l2_error": 1e-12, "max_abs": 3.5}
    assert rep["per_dimension"]["dim1"]["permute_count"] == 1
    bare = reports.transform_report("kdft", (8,), shape, F64, "uniform", "random", mesh)
    assert bare["oracle"] is None
    json.dumps(rep)  # must be serializable as-is


def test_pinned_contract_tuples():
    assert reports.CSV_COLUMNS == (
        "dims", "shape", "num_cores", "status",
        "einsum_flops_per_core", "local_fft_flops_per_core",
        "permute_count", "all_to_all_count", "bytes_moved",
        "ideal_work", "expected_work", "max_rel_error_vs_oracle",
    )
    assert set(reports.WORK_MODEL) == {
        "kdft_einsum_flops_per_core",
        "fft_local_fft_flops_per_core",
        "fft_einsum_flops_per_core",
    }
    assert reports.ORACLE_ELEMENT_LIMIT == 4096
    from meshdft.mesh import LEDGER_FIELDS

    assert LEDGER_FIELDS == (
        "permute_count", "all_to_all_count", "bytes_moved",
        "einsum_flops", "local_fft_flops",
    )
