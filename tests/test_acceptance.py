"""Acceptance suite: ten numbered criteria, one test each.

Each test wraps its assertions in the ``criterion`` fixture so the terminal
summary prints a single PASS/FAIL line per criterion. Tolerances are pinned
here and nowhere else: 1e-10 (f64), 1e-5 (f32), 1e-4 (bf16 split), and the
exact integer identities for the communication/work counters.
"""

import json
import math

import numpy as np

import meshdft as md
from meshdft import cli, reports
from meshdft.ctensor import _split3
from meshdft.tensorio import gen_tone
from helpers import F64, F32, BF16, rand_tensor, run_kdft, run_fft, err_vs

TOL = {F64: 1e-10, F32: 1e-5, BF16: 1e-4}

CONFIGS = [((n,), (p, 1, 1)) for n in (8, 64, 256) for p in (1, 2, 4, 8)] + [
    ((8, 8), (2, 2, 1)),
    ((32, 32), (4, 2, 1)),
    ((16, 16, 16), (2, 2, 2)),
]
CASES = 20


class _RunCache:
    """Shared inputs, oracle spectra, and memoized f64 engine runs."""

    def __init__(self):
        self.inputs = {}
        self.oracles = {}
        self.runs = {}

    def input(self, extents, idx):
        key = (extents, idx)
        if key not in self.inputs:
            rng = np.random.default_rng([idx, *extents])
            re = rng.uniform(-1.0, 1.0, size=extents)
            im = rng.uniform(-1.0, 1.0, size=extents)
            self.inputs[key] = md.ComplexTensor(re, im)
        return self.inputs[key]

    def oracle(self, extents, idx):
        key = (extents, idx)
        if key not in self.oracles:
            self.oracles[key] = md.direct_dft(self.input(extents, idx))
        return self.oracles[key]

    def run(self, algo, extents, dims, idx, mode):
        key = (algo, extents, dims, idx, mode)
        if key in self.runs:
            return self.runs[key]
        x = self.input(extents, idx)
        runner = run_kdft if algo == "kdft" else run_fft
        gathered, blocks, _ = runner(x, dims, mode=mode)
        if mode is F64:  # criteria 1-3 revisit these; f32/bf16 are one-shot
            self.runs[key] = (gathered, blocks)
        return gathered, blocks


_CACHE = _RunCache()


def test_criterion_1_kdft_oracle_equivalence(criterion):
    with criterion(1):
        for extents, dims in CONFIGS:
            for idx in range(CASES):
                ref = _CACHE.oracle(extents, idx)
                for mode in (F64, F32, BF16):
                    got, _ = _CACHE.run("kdft", extents, dims, idx, mode)
                    err = err_vs(got, ref.values)
                    assert err < TOL[mode], (extents, dims, idx, mode.value, err)


def test_criterion_2_fft_oracle_equivalence(criterion):
    with criterion(2):
        for extents, dims in CONFIGS:
            for idx in range(CASES):
                ref = _CACHE.oracle(extents, idx)
                for mode in (F64, F32, BF16):
                    got, _ = _CACHE.run("fft", extents, dims, idx, mode)
                    err = err_vs(got, ref.values)
                    assert err < TOL[mode], (extents, dims, idx, mode.value, err)
        # natural frequency order: a pure tone lands exactly on its own bin
        for parts in (1, 2, 4, 8):
            out, _, _ = run_fft(gen_tone((8,), [3]), (parts, 1, 1))
            spectrum = out.to_complex()
            assert np.argmax(np.abs(spectrum)) == 3
            assert abs(spectrum[3] - 8.0) < 1e-10


def test_criterion_3_cross_engine_agreement(criterion):
    with criterion(3):
        for extents, dims in CONFIGS:
            for idx in range(CASES):
                _, kdft_blocks = _CACHE.run("kdft", extents, dims, idx, F64)
                _, fft_blocks = _CACHE.run("fft", extents, dims, idx, F64)
                assert len(kdft_blocks) == len(fft_blocks)
                scale = max(
                    1.0,
                    max(np.max(np.abs(b.to_complex())) for b in fft_blocks),
                )
                for a, b in zip(kdft_blocks, fft_blocks):
                    assert a.shape == b.shape
                    diff = np.max(np.abs(a.to_complex() - b.to_complex()))
                    assert diff <= 1e-10 * scale, (extents, dims, idx, diff)


def test_criterion_4_nonuniform_kdft(criterion):
    with criterion(4):
        for n, parts in ((8, 1), (8, 2), (32, 4), (128, 4)):
            for idx in range(10):
                rng = np.random.default_rng([400 + idx, n, parts])
                angles = rng.uniform(0.0, 2.0 * np.pi, size=n)
                while np.unique(angles).size < n:
                    angles = rng.uniform(0.0, 2.0 * np.pi, size=n)
                samples = md.SamplePoints.explicit(np.exp(1j * angles))
                x = rand_tensor((n,), seed=4000 + 13 * idx + n)
                got, _, _ = run_kdft(x, (parts, 1, 1), samples=(samples,))
                ref = md.direct_dft(x, samples)
                assert err_vs(got, ref.values) < 1e-10, (n, parts, idx)


def test_criterion_5_collective_counts(criterion):
    with criterion(5):
        # a single 16-core (then 32-core) line on the third dimension
        extents = (4, 4, 32)
        for p3, want in ((16, 15), (32, 31)):
            x = rand_tensor(extents, seed=50 + p3)
            for algo, runner in (("kdft", run_kdft), ("fft", run_fft)):
                _, _, mesh = runner(x, (1, 1, p3))
                per = mesh.ledger.per_tag()
                assert per["dim3"]["permute_count"] == want, (algo, p3)
                shape = md.ComputationShape(1, 1, p3)
                assert mesh.ledger.as_dict() == reports.expected_ledger(
                    algo, extents, shape, F64
                )
                if algo == "fft":
                    for tag in ("dim1", "dim2", "dim3"):
                        assert per[tag]["all_to_all_count"] == 1
        # general grid: P_d - 1 permutes per dimension for both engines,
        # plus one all_to_all per dimension for the decimation engine
        x = rand_tensor((8, 8, 8), seed=55)
        for algo, runner in (("kdft", run_kdft), ("fft", run_fft)):
            _, _, mesh = runner(x, (2, 2, 2))
            per = mesh.ledger.per_tag()
            for tag in ("dim1", "dim2", "dim3"):
                assert per[tag]["permute_count"] == 1
                assert per[tag]["all_to_all_count"] == (1 if algo == "fft" else 0)


def test_criterion_6_strong_scaling_counters(criterion, tmp_path):
    with criterion(6):
        rows_by_algo = {}
        for algo in ("kdft", "fft"):
            base = str(tmp_path / f"sweep_{algo}")
            code = cli.main([
                "scaling", "--algo", algo, "--mode", "strong",
                "--dims", "1024", "--sweep", "2,4,8", "--report", base,
            ])
            assert code == 0
            with open(base + ".csv") as fh:
                assert fh.readline().strip() == ",".join(reports.CSV_COLUMNS)
            rows_by_algo[algo] = json.loads(open(base + ".json").read())["rows"]

        krows = rows_by_algo["kdft"]
        assert [r["num_cores"] for r in krows] == [2, 4, 8]
        for row in krows:
            assert row["status"] == "ok"
            assert row["einsum_flops_per_core"] == row["ideal_work"]
            assert row["einsum_flops_per_core"] == row["expected_work"]
            assert row["max_rel_error_vs_oracle"] < 1e-10
        for prev, nxt in zip(krows, krows[1:]):
            assert prev["einsum_flops_per_core"] == 2 * nxt["einsum_flops_per_core"]

        frows = rows_by_algo["fft"]
        assert [r["num_cores"] for r in frows] == [2, 4, 8]
        base_log = int(math.log2(1024 // frows[0]["num_cores"]))
        assert frows[0]["local_fft_flops_per_core"] == frows[0]["ideal_work"]
        for row in frows:
            assert row["status"] == "ok"
            assert row["local_fft_flops_per_core"] == row["expected_work"]
            assert row["max_rel_error_vs_oracle"] < 1e-10
            # measured counter and linear-scaling ideal differ by exactly the
            # ratio of local transform lengths' logs; cross-multiplied this is
            # an exact integer identity
            row_log = int(math.log2(1024 // row["num_cores"]))
            assert row["local_fft_flops_per_core"] * base_log == row["ideal_work"] * row_log


def test_criterion_7_inverse_round_trip(criterion):
    with criterion(7):
        shape = md.ComputationShape(2, 2, 2)
        plan = md.create_kdft_plan(shape, (16, 16, 16), F64)
        for idx in range(5):
            x = rand_tensor((16, 16, 16), seed=700 + idx)
            blocks, assignment = md.decompose(x, shape)
            mesh = md.MeshSim(shape)
            forward = md.kdft_forward(mesh, plan, blocks)
            back = md.kdft_inverse_uniform(mesh, plan, forward)
            assert err_vs(md.gather_to_host(back, assignment), x) < 1e-10


def test_criterion_8_worker_determinism(criterion, tmp_path):
    with criterion(8):
        for algo in ("kdft", "fft"):
            payloads = []
            for workers in (1, 4, 8):  # 8 == num_cores of the 2x2x2 grid
                out = tmp_path / f"{algo}_{workers}.bin"
                rep = tmp_path / f"{algo}_{workers}.json"
                code = cli.main([
                    "transform", "--algo", algo, "--dims", "8x8x8",
                    "--shape", "2x2x2", "--gen", "random", "--seed", "7",
                    "--workers", str(workers),
                    "--output", str(out), "--report", str(rep),
                ])
                assert code == 0
                payloads.append((
                    out.read_bytes(),
                    (tmp_path / f"{algo}_{workers}.bin.json").read_bytes(),
                    rep.read_bytes(),
                ))
            assert payloads[0] == payloads[1] == payloads[2]


def test_criterion_9_split_precision(criterion):
    with criterion(9):
        worst = 0.0
        for seed in range(50):
            rng = np.random.default_rng(900 + seed)
            a = rng.uniform(-1.0, 1.0, (64, 64))
            b = rng.uniform(-1.0, 1.0, (64, 64))
            exact = md.matmul_mixed(a, b, F64)
            approx = md.matmul_mixed(a, b, BF16)
            worst = max(worst, np.max(np.abs(approx - exact)) / np.max(np.abs(exact)))
        assert worst <= 1e-5, worst

        # the three terms recover at least 22 mantissa bits of every value;
        # magnitudes are log-uniform across the range where the split terms
        # stay representable, plus the edge cases that historically bite
        rng = np.random.default_rng(901)
        exponents = rng.uniform(-108.0, 127.0, size=100_000)
        signs = rng.choice([-1.0, 1.0], size=100_000)
        values = (signs * np.exp2(exponents)).astype(np.float32)
        specials = np.array(
            [0.0, 1.0, np.pi, 2.0 ** -112, 2.0 ** -126, np.finfo(np.float32).max],
            dtype=np.float32,
        )
        values = np.concatenate([values, specials, -specials])
        t0, t1, t2 = _split3(values)
        recon = (t0.astype(np.float64) + t1.astype(np.float64)
                 + t2.astype(np.float64))
        residual = np.abs(values.astype(np.float64) - recon)
        assert np.all(residual <= np.abs(values.astype(np.float64)) * 2.0 ** -22)


def test_criterion_10_shift_by_one_trace(criterion):
    with criterion(10):
        mesh = md.MeshSim(md.ComputationShape(3, 1, 1))
        slices = md.slice_rows(md.build_uniform(6), 3)
        blocks = [
            md.ComplexTensor([10.0, 11.0], [0.0, 0.0]),
            md.ComplexTensor([20.0, 21.0], [0.0, 0.0]),
            md.ComplexTensor([30.0, 31.0], [0.0, 0.0]),
        ]
        trace = []
        results = md.one_shuffle(mesh, slices, blocks, trace=trace)

        pairs = ((1, 0), (2, 1), (0, 2))  # member i receives from member i+1
        expected = [
            {
                "einsums": [
                    {"core": 0, "v_col": 0, "x_first": 10 + 0j},
                    {"core": 1, "v_col": 1, "x_first": 20 + 0j},
                    {"core": 2, "v_col": 2, "x_first": 30 + 0j},
                ],
                "pairs": pairs,
            },
            {
                "einsums": [
                    {"core": 0, "v_col": 1, "x_first": 20 + 0j},
                    {"core": 1, "v_col": 2, "x_first": 30 + 0j},
                    {"core": 2, "v_col": 0, "x_first": 10 + 0j},
                ],
                "pairs": pairs,
            },
            {
                "einsums": [
                    {"core": 0, "v_col": 2, "x_first": 30 + 0j},
                    {"core": 1, "v_col": 0, "x_first": 10 + 0j},
                    {"core": 2, "v_col": 1, "x_first": 20 + 0j},
                ],
                "pairs": None,
            },
        ]
        assert trace == expected
        assert mesh.ledger.permute_count == 2

        full = md.build_uniform(6).to_complex() @ np.array(
            [10.0, 11.0, 20.0, 21.0, 30.0, 31.0], dtype=np.complex128)
        for i, res in enumerate(results):
            assert np.max(np.abs(res.to_complex() - full[2 * i : 2 * i + 2])) < 1e-13
