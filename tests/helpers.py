"""Small shared helpers: random inputs, end-to-end engine runs, error metric."""

import json

import numpy as np

import meshdft as md
from meshdft.ctensor import _split3

F64 = md.PrecisionMode.F64_REFERENCE
F32 = md.PrecisionMode.F32
BF16 = md.PrecisionMode.BF16_SPLIT3


def plan_block(plan, d, pos, j):
    """Column block j of the row slice of position ``pos`` along dimension ``d`` of a
    kdft plan, as its prepared (re terms, im terms): one term per plane under f64
    and f32, the three split terms under bf16split3."""
    step = (j - pos) % plan.shape.dims[d]
    return tuple(tuple(t[step, j] for t in terms) for terms in plan.ring_blocks[d])


def from_complex(values, dtype=np.float64):
    values = np.asarray(values)
    return md.ComplexTensor(values.real.astype(dtype), values.imag.astype(dtype))


def zeros(shape, dtype=np.float64):
    return md.ComplexTensor(np.zeros(shape, dtype=dtype), np.zeros(shape, dtype=dtype))


def ledger_json(ledger):
    """A ledger's totals as JSON, in ``LEDGER_FIELDS`` order."""
    return json.dumps(ledger.as_dict(), indent=2, sort_keys=False) + "\n"


def write_points_file(path, samples_per_dim):
    """Write sample points in the format ``tensorio.read_points_file`` reads."""
    data = {
        "dims": [
            [[float(z.real), float(z.imag)] for z in s.points]
            for s in samples_per_dim
        ]
    }
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


def counting_split3(monkeypatch):
    """Patch the bf16 split with one that records the shape of every plane it splits."""
    shapes = []

    def counting(values):
        shapes.append(values.shape)
        return _split3(values)

    monkeypatch.setattr("meshdft.ctensor._split3", counting)
    return shapes


def rand_tensor(extents, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    re = rng.uniform(-scale, scale, size=extents)
    im = rng.uniform(-scale, scale, size=extents)
    return md.ComplexTensor(re, im)


def run_kdft(x, dims, samples=None, mode=F64, workers=1):
    """Decompose, transform, reassemble. Returns (global result, blocks, mesh)."""
    shape = md.ComputationShape(*dims)
    if samples is None:
        samples = tuple(int(n) for n in x.shape)
    plan = md.create_kdft_plan(shape, samples, mode)
    blocks, assignment = md.decompose(x, shape)
    mesh = md.MeshSim(shape)
    out = md.kdft_forward(mesh, plan, blocks, workers=workers)
    return md.gather_to_host(out, assignment), out, mesh


def run_fft(x, dims, mode=F64, workers=1):
    shape = md.ComputationShape(*dims)
    plan = md.create_fft_plan(shape, x.shape, mode)
    blocks, assignment = md.decompose(x, shape)
    mesh = md.MeshSim(shape)
    out = md.fft_forward(mesh, plan, blocks, workers=workers)
    return md.gather_to_host(out, assignment), out, mesh


def err_vs(result, reference):
    return md.relative_l2_error(result, reference)
