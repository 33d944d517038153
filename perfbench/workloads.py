"""The benchmark's workloads: inputs from a seed, one op, and its checks.

Every workload drives meshdft only through its public API or
``meshdft.cli.main``. An op is one call sequence a user would make; the
checks run after the op's clock stops.
"""

import contextlib
import hashlib
import io
import json
import os
from collections import Counter

import numpy as np

import meshdft as md
from meshdft import cli, reports

F64 = md.PrecisionMode.F64_REFERENCE
F32 = md.PrecisionMode.F32
BF16 = md.PrecisionMode.BF16_SPLIT3

# The tolerances pinned by the acceptance suite (tests/test_acceptance.py).
TOLERANCE = {F64: 1e-10, F32: 1e-5, BF16: 1e-4}


class Outcome:
    """What the checks of one op found."""

    __slots__ = ("ok", "error", "digest", "ledger", "ledger_ok", "reasons")

    def __init__(self, error, digest, ledger, ledger_ok, reasons):
        self.error = error
        self.digest = digest
        self.ledger = ledger
        self.ledger_ok = ledger_ok
        self.reasons = reasons
        self.ok = not reasons


def _digest(*buffers):
    h = hashlib.sha256()
    for b in buffers:
        h.update(np.ascontiguousarray(b))
    return h.hexdigest()


class EngineWorkload:
    """decompose -> forward -> gather_to_host on a plan built once."""

    def __init__(self, algo, extents, grid, precision, workers, nonuniform=False):
        self.algo = algo
        self.extents = tuple(extents)
        self.grid = tuple(grid)
        self.precision = precision
        self.workers = workers
        self.nonuniform = nonuniform
        self.elements_per_op = int(np.prod(self.extents))

    def setup(self, seed):
        """Input generation and plan build: the program-side set-up."""
        rng = np.random.default_rng(seed)
        self.shape = md.ComputationShape(*self.grid)
        self.x = md.ComplexTensor(
            rng.uniform(-1.0, 1.0, self.extents), rng.uniform(-1.0, 1.0, self.extents)
        )
        if self.algo == "fft":
            self.plan = md.create_fft_plan(self.shape, self.extents, self.precision)
            return
        if self.nonuniform:
            self.angles = [np.sort(rng.uniform(0.0, 2.0 * np.pi, n)) for n in self.extents]
            samples = [md.SamplePoints.explicit(np.exp(1j * a)) for a in self.angles]
        else:
            samples = list(self.extents)
        self.plan = md.create_kdft_plan(self.shape, samples, self.precision)

    def prepare_checks(self):
        """The reference spectrum and closed-form ledger; not part of set-up."""
        x = self.x.to_complex()
        if self.nonuniform:
            # dense complex128 V[k, m] = z_k^(-m) per dimension, applied axis by axis
            ref = x
            for axis, a in enumerate(self.angles):
                v = np.exp(-1j * np.outer(a, np.arange(len(a))))
                ref = np.moveaxis(np.tensordot(v, ref, axes=([1], [axis])), 0, axis)
        else:
            ref = np.fft.fftn(x)
        self.ref_re, self.ref_im = ref.real.copy(), ref.imag.copy()
        self.ref_sq_norm = float(np.sum(self.ref_re ** 2) + np.sum(self.ref_im ** 2))
        self.scratch = np.empty(self.extents)
        self.expected = reports.expected_ledger(
            self.algo, self.extents, self.shape, self.precision
        )

    def op(self):
        mesh = md.MeshSim(self.shape)
        blocks, assignment = md.decompose(self.x, self.shape)
        forward = md.fft_forward if self.algo == "fft" else md.kdft_forward
        out = forward(mesh, self.plan, blocks, workers=self.workers)
        return md.gather_to_host(out, assignment), mesh.ledger.as_dict()

    def check(self, output, perturb=False):
        result, ledger = output
        if perturb:
            re = np.array(result.re)
            re.flat[0] += 1.0
            result = md.ComplexTensor(re, result.im)
        reasons = []
        error = (self._sq_dist(result) / self.ref_sq_norm) ** 0.5
        if not error <= TOLERANCE[self.precision]:
            reasons.append(f"rel_l2_err {error:.3e} above {TOLERANCE[self.precision]:g}")
        ledger_ok = ledger == self.expected
        if not ledger_ok:
            reasons.append(f"ledger {ledger} != closed form {self.expected}")
        digest = _digest(result.re, result.im)
        return Outcome(error, digest, ledger, ledger_ok, reasons)

    def _sq_dist(self, result):
        # in a buffer kept from set-up, and not through np.linalg.norm: check
        # allocations would steer the allocator the program's ops share, and a
        # BLAS call would leave OpenBLAS threads spinning into the next op
        buf = self.scratch
        total = 0.0
        for plane, ref in ((result.re, self.ref_re), (result.im, self.ref_im)):
            np.subtract(plane, ref, out=buf)
            np.square(buf, out=buf)
            total += float(buf.sum())
        return total

    def yardstick(self):
        x = self.x.to_complex()
        return lambda: np.fft.fftn(x)


class SweepWorkload:
    """``meshdft scaling`` strong sweep through ``cli.main``; one op is one sweep."""

    def __init__(self, dims, sweep, precision, out_dir):
        self.dims = dims
        self.sweep = tuple(sweep)
        self.precision = precision
        self.out_dir = out_dir
        self.elements_per_op = dims * len(self.sweep)

    def setup(self, seed):
        os.makedirs(self.out_dir, exist_ok=True)
        self.seed = seed
        self.base = os.path.join(self.out_dir, "sweep")
        self.argv = [
            "scaling", "--algo", "fft", "--mode", "strong", "--dims", str(self.dims),
            "--sweep", ",".join(str(p) for p in self.sweep),
            "--precision", self.precision.value, "--seed", str(seed),
            "--report", self.base,
        ]

    def prepare_checks(self):
        self.expected = {
            p: reports.expected_ledger(
                "fft", (self.dims,), md.ComputationShape(p), self.precision
            )
            for p in self.sweep
        }

    def op(self):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(self.argv)
        return code

    def check(self, code, perturb=False):
        # remove the report once read, so a sweep that writes none cannot pass
        try:
            with open(self.base + ".json", "rb") as fh:
                raw = fh.read()
            with open(self.base + ".csv", "rb") as fh:
                raw_csv = fh.read()
        except OSError as exc:
            return Outcome(float("inf"), "", {}, False, [f"report not written: {exc}"])
        finally:
            for path in (self.base + ".json", self.base + ".csv"):
                if os.path.exists(path):
                    os.remove(path)
        doc = json.loads(raw)
        raw += raw_csv
        if perturb:
            doc["rows"][0]["max_rel_error_vs_oracle"] = 1.0
            raw += b"perturbed"
        reasons = []
        if code != 0:
            reasons.append(f"exit code {code}")
        rows = doc["rows"]
        if [r["shape"] for r in rows] != [str(p) for p in self.sweep]:
            reasons.append("sweep rows do not match the requested points")
        errors = []
        ledger = Counter()
        ledger_ok = True
        for row in rows:
            if row["status"] != "ok":
                reasons.append(f"row {row['shape']}: {row['status']}")
                continue
            num = row["num_cores"]
            got = {
                "permute_count": row["permute_count"],
                "all_to_all_count": row["all_to_all_count"],
                "bytes_moved": row["bytes_moved"],
                "einsum_flops": row["einsum_flops_per_core"] * num,
                "local_fft_flops": row["local_fft_flops_per_core"] * num,
            }
            if got != self.expected.get(num):
                ledger_ok = False
                reasons.append(f"row {row['shape']}: ledger {got} != closed form")
            ledger.update(got)
            errors.append(float(row["max_rel_error_vs_oracle"]))
        error = max(errors) if errors else float("inf")
        if not error <= TOLERANCE[self.precision]:
            reasons.append(f"max_rel_error_vs_oracle {error:.3e} above tolerance")
        return Outcome(error, _digest(raw), dict(ledger), ledger_ok, reasons)

    def yardstick(self):
        rng = np.random.default_rng(self.seed)
        x = rng.uniform(-1.0, 1.0, self.dims) + 1j * rng.uniform(-1.0, 1.0, self.dims)

        def run():
            for _ in self.sweep:
                np.fft.fftn(x)

        return run


def make(name, out_dir, tiny=False):
    """The named workload at full size, or at a seconds-long size for smoke tests."""
    if name == "fft3d-128":
        n = 16 if tiny else 128
        return EngineWorkload("fft", (n, n, n), (2, 2, 2), F64, workers=2)
    if name == "kdft1d-4096":
        return EngineWorkload("kdft", (64 if tiny else 4096,), (8, 1, 1), F64,
                              workers=1)
    if name == "kdft2d-nu-bf16":
        n = 16 if tiny else 256
        return EngineWorkload("kdft", (n, n), (2, 2, 1), BF16, workers=1,
                              nonuniform=True)
    if name == "sweep-fft-4096":
        if tiny:
            return SweepWorkload(64, (1, 2, 4, 8), F32, out_dir)
        return SweepWorkload(4096, (1, 2, 4, 8, 16, 32, 64), F32, out_dir)
    raise KeyError(name)

