"""End-to-end command-line coverage: transform and scaling subcommands."""

import csv
import json

import numpy as np
import pytest

import meshdft as md
from meshdft import cli, reports, tensorio
from helpers import rand_tensor


def test_parse_dims():
    assert cli.parse_dims("64") == (64,)
    assert cli.parse_dims("8x8x8") == (8, 8, 8)
    assert cli.parse_dims("2X4") == (2, 4)
    for bad in ("a", "1x2x3x4", "0", "8x"):
        with pytest.raises(md.ArgumentError):
            cli.parse_dims(bad)


def test_transform_delta(tmp_path, capsys):
    out_path = str(tmp_path / "out.bin")
    rep_path = str(tmp_path / "rep.json")
    code = cli.main([
        "transform", "--algo", "kdft", "--dims", "8", "--shape", "2",
        "--gen", "delta", "--output", out_path, "--report", rep_path,
    ])
    assert code == 0
    spectrum = tensorio.read_tensor(out_path)
    assert np.max(np.abs(spectrum.to_complex() - 1.0)) < 1e-13
    with open(rep_path) as fh:
        report = json.load(fh)
    assert report["algo"] == "kdft"
    assert report["ledger"]["permute_count"] == 1
    assert report["oracle"]["relative_l2_error"] < 1e-12
    stdout = capsys.readouterr().out
    assert "permute_count=1" in stdout
    assert "rel_l2_err=" in stdout


def test_transform_from_file(tmp_path):
    x = rand_tensor((16,), seed=30)
    in_path = str(tmp_path / "in.bin")
    out_path = str(tmp_path / "out.bin")
    tensorio.write_tensor(in_path, x)
    code = cli.main([
        "transform", "--algo", "fft", "--dims", "16", "--shape", "4",
        "--input", in_path, "--output", out_path,
    ])
    assert code == 0
    got = tensorio.read_tensor(out_path).to_complex()
    ref = np.fft.fft(x.to_complex())
    assert np.linalg.norm(got - ref) / np.linalg.norm(ref) < 1e-12


def test_transform_dims_mismatch(tmp_path, capsys):
    in_path = str(tmp_path / "in.bin")
    tensorio.write_tensor(in_path, rand_tensor((8,), seed=31))
    code = cli.main([
        "transform", "--algo", "kdft", "--dims", "16", "--input", in_path,
    ])
    assert code == 2
    assert "do not match" in capsys.readouterr().err


def test_transform_missing_input_file(tmp_path, capsys):
    code = cli.main([
        "transform", "--algo", "kdft", "--dims", "8",
        "--input", str(tmp_path / "nope.bin"),
    ])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_fft_rejects_non_power_of_two(capsys):
    code = cli.main(["transform", "--algo", "fft", "--dims", "6", "--gen", "delta"])
    assert code == 2
    assert "power of two" in capsys.readouterr().err


def test_fft_rejects_nonuniform(capsys):
    code = cli.main([
        "transform", "--algo", "fft", "--dims", "8", "--gen", "delta",
        "--sampling", "nonuniform",
    ])
    assert code == 2
    assert "uniform sampling" in capsys.readouterr().err


def test_kdft_nonuniform_points_file(tmp_path):
    rng = np.random.default_rng(32)
    angles = rng.uniform(0.0, 2.0 * np.pi, size=8)
    points = np.exp(1j * angles)
    pts_path = str(tmp_path / "pts.json")
    rep_path = str(tmp_path / "rep.json")
    tensorio.write_points_file(pts_path, [md.SamplePoints.explicit(points)])
    code = cli.main([
        "transform", "--algo", "kdft", "--dims", "8", "--shape", "2",
        "--gen", "random", "--seed", "5", "--sampling", "nonuniform",
        "--points-file", pts_path, "--report", rep_path,
    ])
    assert code == 0
    with open(rep_path) as fh:
        report = json.load(fh)
    assert report["sampling"] == "nonuniform"
    assert report["oracle"]["relative_l2_error"] < 1e-10


def test_nonuniform_oracle_does_not_share_the_engine_rounding(tmp_path):
    # the roots of unity as explicit points: engine and reference both build
    # z^-m by iterated division, and when both rounded each step in float64
    # their errors cancelled (1.7e-15 reported against 5.7e-13 vs np.fft)
    n = 1024
    pts_path = str(tmp_path / "pts.json")
    rep_path = str(tmp_path / "rep.json")
    roots = np.exp(2j * np.pi * np.arange(n) / n)
    tensorio.write_points_file(pts_path, [md.SamplePoints.explicit(roots)])
    code = cli.main([
        "transform", "--algo", "kdft", "--dims", str(n), "--shape", "4",
        "--gen", "random", "--seed", "3", "--sampling", "nonuniform",
        "--points-file", pts_path, "--report", rep_path,
    ])
    assert code == 0
    with open(rep_path) as fh:
        report = json.load(fh)
    assert report["oracle"]["relative_l2_error"] >= 1e-14


@pytest.mark.parametrize("text", ['{"dims": ', '{"dims": 5}'])
def test_malformed_points_file_exits_2(tmp_path, capsys, text):
    pts_path = tmp_path / "pts.json"
    pts_path.write_text(text)
    code = cli.main([
        "transform", "--algo", "kdft", "--dims", "8", "--gen", "delta",
        "--sampling", "nonuniform", "--points-file", str(pts_path),
    ])
    assert code == 2
    assert "pts.json" in capsys.readouterr().err


def test_malformed_sidecar_dims_exits_2(tmp_path, capsys):
    in_path = tmp_path / "in.bin"
    tensorio.write_tensor(in_path, rand_tensor((8,), seed=31))
    side = tmp_path / "in.bin.json"
    side.write_text(json.dumps({**json.loads(side.read_text()), "dims": "ab"}))
    code = cli.main([
        "transform", "--algo", "kdft", "--dims", "8", "--input", str(in_path),
    ])
    assert code == 2
    assert "dims must be a list of ints" in capsys.readouterr().err


@pytest.mark.parametrize("gen", [
    ["--gen", "tone:abc"], ["--gen", "tone:1.5"], ["--gen", "constant:abc"],
    ["--gen", "random", "--seed", "-1"],
])
def test_malformed_generator_exits_2(capsys, gen):
    code = cli.main(["transform", "--algo", "fft", "--dims", "8"] + gen)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("precision", ["f32", "bf16split3"])
@pytest.mark.parametrize("algo,dims,stage", [
    ("fft", "64", "local FFT"), ("fft", "4", "phase ring"), ("kdft", "64", "shift ring"),
    ("fft", "64", "entry cast"), ("kdft", "64", "entry cast"),
])
def test_overflow_names_its_stage_and_warns_nothing(capsys, algo, dims, stage, precision,
                                                    workers):
    # 3e38 fits float32, but sums of it do not, and 1e39 does not fit it at
    # all; any numpy warning would fail the run under the suite's
    # RuntimeWarning-as-error filter
    entry = stage == "entry cast"
    code = cli.main([
        "transform", "--algo", algo, "--dims", dims, "--shape", "4",
        "--gen", "constant:" + ("1e39" if entry else "3e38"),
        "--precision", precision, "--workers", workers,
    ])
    assert code == 2
    captured = capsys.readouterr()
    where = "" if entry else " of dim 1"
    assert captured.err == (
        f"error: {stage}{where} in {precision}: non-finite values in tensor planes\n"
    )


def test_scaling_skips_points_with_malformed_generator(capsys):
    code = cli.main([
        "scaling", "--algo", "fft", "--mode", "strong", "--dims", "16",
        "--sweep", "1,2", "--gen", "tone:abc",
    ])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out.count("skipped: malformed generator 'tone:abc'") == 2
    assert "every sweep point failed" in captured.err


def test_nonuniform_requires_points_file(capsys):
    code = cli.main([
        "transform", "--algo", "kdft", "--dims", "8", "--gen", "delta",
        "--sampling", "nonuniform",
    ])
    assert code == 2
    assert "--points-file" in capsys.readouterr().err


def test_precision_alias_and_report_value(tmp_path):
    rep_path = str(tmp_path / "rep.json")
    code = cli.main([
        "transform", "--algo", "kdft", "--dims", "8", "--shape", "2",
        "--gen", "random", "--precision", "bf16", "--report", rep_path,
    ])
    assert code == 0
    with open(rep_path) as fh:
        assert json.load(fh)["precision"] == "bf16split3"


def test_bad_shape_text(capsys):
    code = cli.main([
        "transform", "--algo", "kdft", "--dims", "8", "--shape", "2y2",
        "--gen", "delta",
    ])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_scaling_strong_kdft(tmp_path, capsys):
    base = str(tmp_path / "sweep")
    code = cli.main([
        "scaling", "--algo", "kdft", "--mode", "strong", "--dims", "64",
        "--sweep", "2,4,8", "--report", base,
    ])
    assert code == 0
    with open(base + ".csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["einsum_flops_per_core"] for r in rows] == ["8192", "4096", "2048"]
    assert [r["ideal_work"] for r in rows] == ["8192", "4096", "2048"]
    assert [r["expected_work"] for r in rows] == ["8192", "4096", "2048"]
    with open(base + ".json") as fh:
        doc = json.load(fh)
    assert doc["mode"] == "strong"
    assert [r["num_cores"] for r in doc["rows"]] == [2, 4, 8]
    for row in doc["rows"]:
        assert row["status"] == "ok"
        assert row["einsum_flops_per_core"] == row["ideal_work"] == row["expected_work"]
        assert row["max_rel_error_vs_oracle"] < 1e-10
    assert "wrote" in capsys.readouterr().out


def test_scaling_weak_fft_skips_bad_points(capsys):
    code = cli.main([
        "scaling", "--algo", "fft", "--mode", "weak", "--shape", "2",
        "--sweep", "16,24,32",
    ])
    assert code == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert "skipped:" in lines[1] and "dims=24" in lines[1]
    assert "ok" in lines[0] and "ok" in lines[2]


def test_scaling_all_points_fail(capsys):
    code = cli.main([
        "scaling", "--algo", "fft", "--mode", "weak", "--shape", "2",
        "--sweep", "6,10",
    ])
    assert code == 2
    assert "every sweep point failed" in capsys.readouterr().err


def test_scaling_strong_requires_dims(capsys):
    code = cli.main([
        "scaling", "--algo", "kdft", "--mode", "strong", "--sweep", "2,4",
    ])
    assert code == 2
    assert "requires --dims" in capsys.readouterr().err


def test_scaling_weak_requires_shape(capsys):
    code = cli.main([
        "scaling", "--algo", "fft", "--mode", "weak", "--sweep", "64,128",
    ])
    assert code == 2
    captured = capsys.readouterr()
    assert "error: weak scaling requires --shape" in captured.err
    assert captured.out == ""


def test_scaling_strong_report_keeps_default_shape(tmp_path):
    base = str(tmp_path / "sweep")
    code = cli.main([
        "scaling", "--algo", "fft", "--mode", "strong", "--dims", "16",
        "--sweep", "1,2", "--report", base,
    ])
    assert code == 0
    with open(base + ".json") as fh:
        doc = json.load(fh)
    assert doc["base"]["shape"] == "1"


# -- oracle reuse within one sweep ---------------------------------------------


@pytest.fixture
def oracle_calls(monkeypatch):
    """Count calls to the oracle as the CLI looks it up."""
    calls = []
    real = cli.direct_dft

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "direct_dft", counting)
    return calls


def _sweep_rows(tmp_path, *argv):
    base = str(tmp_path / "sweep")
    assert cli.main(["scaling", *argv, "--report", base]) == 0
    with open(base + ".json") as fh:
        return json.load(fh)["rows"]


def _standalone_error(algo, dims, shape, precision="f64", seed=0):
    config = cli.RunConfig(
        algorithm=algo,
        extents=cli.parse_dims(dims),
        shape=md.ComputationShape.parse(shape),
        precision=md.PrecisionMode.parse(precision),
        generator="random",
        seed=seed,
    )
    _, report = cli.run_transform(config)
    return report["oracle"]["relative_l2_error"]


def test_strong_sweep_evaluates_the_oracle_once(tmp_path, oracle_calls):
    rows = _sweep_rows(
        tmp_path, "--algo", "fft", "--mode", "strong", "--dims", "64",
        "--sweep", "1,2,4,8,16,32,64", "--precision", "f32", "--seed", "5",
    )
    assert oracle_calls == [(64,)]
    assert [r["status"] for r in rows] == ["ok"] * 7
    for row in rows:
        assert row["max_rel_error_vs_oracle"] == _standalone_error(
            "fft", "64", row["shape"], "f32", seed=5
        )


def test_weak_sweep_evaluates_the_oracle_once_per_dims(tmp_path, oracle_calls):
    rows = _sweep_rows(
        tmp_path, "--algo", "kdft", "--mode", "weak", "--shape", "2",
        "--sweep", "16,32,16",
    )
    assert oracle_calls == [(16,), (32,)]
    assert [r["status"] for r in rows] == ["ok"] * 3
    assert rows[0]["max_rel_error_vs_oracle"] == rows[2]["max_rel_error_vs_oracle"]
    for row in rows:
        assert row["max_rel_error_vs_oracle"] == _standalone_error(
            "kdft", row["dims"], "2"
        )


def test_skipped_point_stores_no_reference(tmp_path, oracle_calls):
    rows = _sweep_rows(
        tmp_path, "--algo", "fft", "--mode", "strong", "--dims", "64",
        "--sweep", "3,2,4",
    )
    assert oracle_calls == [(64,)]
    assert rows[0]["status"].startswith("skipped:")
    assert rows[0]["max_rel_error_vs_oracle"] == ""
    without_skip = _sweep_rows(
        tmp_path, "--algo", "fft", "--mode", "strong", "--dims", "64",
        "--sweep", "2,4",
    )
    assert [r["max_rel_error_vs_oracle"] for r in rows[1:]] == [
        r["max_rel_error_vs_oracle"] for r in without_skip
    ]


def test_each_invocation_pays_for_its_own_oracle(oracle_calls, capsys):
    argv = ["scaling", "--algo", "fft", "--mode", "strong", "--dims", "32",
            "--sweep", "1,2"]
    assert cli.main(argv) == 0
    assert cli.main(argv) == 0
    assert oracle_calls == [(32,), (32,)]
    for _ in range(2):
        assert cli.main(["transform", "--algo", "fft", "--dims", "32",
                         "--shape", "2", "--gen", "random"]) == 0
    assert len(oracle_calls) == 4


# -- ledger invariant ------------------------------------------------------------


@pytest.fixture
def perturbed_closed_form(monkeypatch):
    real = reports.expected_ledger

    def perturbed(*args, **kwargs):
        expected = real(*args, **kwargs)
        expected["bytes_moved"] += 1
        return expected

    monkeypatch.setattr(reports, "expected_ledger", perturbed)


def test_transform_ledger_mismatch_exits_3(tmp_path, capsys, perturbed_closed_form):
    rep_path = tmp_path / "rep.json"
    code = cli.main([
        "transform", "--algo", "kdft", "--dims", "8", "--shape", "2",
        "--gen", "delta", "--report", str(rep_path),
    ])
    assert code == 3
    assert "protocol error: ledger" in capsys.readouterr().err
    assert not rep_path.exists()


def test_scaling_ledger_mismatch_exits_3(tmp_path, capsys, perturbed_closed_form):
    base = tmp_path / "sweep"
    code = cli.main([
        "scaling", "--algo", "fft", "--mode", "strong", "--dims", "16",
        "--sweep", "1,2", "--report", str(base),
    ])
    assert code == 3
    captured = capsys.readouterr()
    assert "protocol error: ledger" in captured.err
    assert "skipped" not in captured.out
    assert not (tmp_path / "sweep.json").exists()


@pytest.mark.parametrize("precision", ["f64", "f32", "bf16split3"])
def test_kdft_bytes_do_not_depend_on_workers_at_blas_sizes(tmp_path, precision):
    # 128x128 blocks: large enough that BLAS splits products across threads
    # at workers=1 and runs single-threaded in the worker pool
    payloads = []
    for workers in (1, 2, 4):
        out = tmp_path / f"{workers}.bin"
        rep = tmp_path / f"{workers}.json"
        code = cli.main([
            "transform", "--algo", "kdft", "--dims", "256x256", "--shape", "2x2",
            "--precision", precision, "--gen", "random", "--seed", "11",
            "--workers", str(workers), "--output", str(out), "--report", str(rep),
        ])
        assert code == 0
        payloads.append((
            out.read_bytes(),
            (tmp_path / f"{workers}.bin.json").read_bytes(),
            rep.read_bytes(),
        ))
    assert payloads[0] == payloads[1] == payloads[2]


def test_every_rank_calls_the_one_oracle(oracle_calls):
    for dims in ("8", "4x4", "2x2x2"):
        assert cli.main(["transform", "--algo", "kdft", "--dims", dims,
                         "--gen", "random"]) == 0
    assert oracle_calls == [(8,), (4, 4), (2, 2, 2)]
