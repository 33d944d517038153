"""One SHA-256 per named engine case, to tell whether two trees give the same bits.

    PYTHONPATH=src python3 tools/digest.py > change.txt
    PYTHONPATH=../parent/src python3 tools/digest.py > parent.txt
    PYTHONPATH=src python3 tools/digest.py --compare parent.txt change.txt

The cases run the engines through the public API: kdft forward, kdft
inverse, nonuniform kdft and fft. Each runs on f64 input in f64, f32 and
bf16split3, and on f32 input in f32 (names ending ``/input-f32``); at
workers 1 and 2; on layouts with P = 1, P = N and m < P along a dimension;
and with ``meshdft.mesh.SLAB_BYTES`` at its default and at 1 (one core per
slab). A case's line is its name and the SHA-256 of its output planes
(dtype, shape and bytes), its ledger, its per-tag ledger and, for kdft
forward, its trace. After the cases, one line per kdft plan (layout,
precision, uniform or nonuniform points) hashes its ``ring_blocks`` terms.
The last line hashes every line before it.

``--compare A B`` reads two such files and prints the names whose digests
differ or that only one file has, one a line; it exits 1 if there are any.

kdft f64 and f32 bits depend on the BLAS build and the CPU
(``meshdft.matmul_mixed``), so compare digests made on one machine. A digest
is no golden value to check a tree against.
"""

import argparse
import hashlib
import itertools
import json
import sys

import numpy as np

import meshdft as md
from meshdft import mesh as mesh_module

# (extents, grid): P = 1, P = N, m < P, and m >= P in 2-D and 3-D
LAYOUTS = (
    ((64,), (1, 1, 1)),
    ((64,), (64, 1, 1)),
    ((64,), (16, 1, 1)),
    ((32, 16), (4, 2, 1)),
    ((16, 4, 8), (8, 1, 2)),
    ((16, 16, 16), (2, 2, 2)),
)
TINY_LAYOUTS = (
    ((8,), (1, 1, 1)),
    ((8,), (8, 1, 1)),
    ((8, 4, 4), (4, 1, 2)),
)
ENGINES = ("kdft-forward", "kdft-inverse", "kdft-nonuniform", "fft")
# (precision, input dtype, name suffix): f64 input in every mode, and f32
# input in f32, which enters the engines with no cast
MODES = tuple((mode, np.float64, "") for mode in md.PrecisionMode) + (
    (md.PrecisionMode.F32, np.float32, "/input-f32"),)
WORKERS = (1, 2)
SLABS = (("default", mesh_module.SLAB_BYTES), ("1", 1))


def _plan(engine, extents, grid, mode):
    shape = md.ComputationShape(*grid)
    if engine == "fft":
        return md.create_fft_plan(shape, extents, mode)
    if engine == "kdft-nonuniform":
        rng = np.random.default_rng(sum(extents))
        samples = [md.SamplePoints.explicit(np.exp(1j * rng.uniform(0, 2 * np.pi, n)))
                   for n in extents]
        return md.create_kdft_plan(shape, samples, mode)
    return md.create_kdft_plan(shape, extents, mode)


def _run(engine, plan, blocks, workers):
    """(output blocks, mesh, trace or None) of one engine call."""
    mesh = md.MeshSim(plan.shape)
    if engine == "fft":
        return md.fft_forward(mesh, plan, blocks, workers=workers), mesh, None
    if engine == "kdft-inverse":
        return md.kdft_inverse_uniform(mesh, plan, blocks, workers=workers), mesh, None
    trace = [] if engine == "kdft-forward" else None
    return md.kdft_forward(mesh, plan, blocks, workers=workers, trace=trace), mesh, trace


def _digest(out, mesh, trace):
    h = hashlib.sha256()
    for block in out:
        h.update(f"{block.dtype} {block.shape}".encode())
        h.update(block.re.tobytes())
        h.update(block.im.tobytes())
    h.update(json.dumps(mesh.ledger.as_dict(), sort_keys=True).encode())
    h.update(json.dumps(mesh.ledger.per_tag(), sort_keys=True).encode())
    if trace is not None:
        h.update(json.dumps(trace, sort_keys=True, default=repr).encode())
    return h.hexdigest()


def cases(layouts=LAYOUTS):
    """Yield (name, SHA-256) for every case, in a fixed order."""
    for (extents, grid), engine, (mode, dtype, suffix) in itertools.product(
            layouts, ENGINES, MODES):
        shape = md.ComputationShape(*grid)
        rng = np.random.default_rng(len(extents) + grid[0])
        x = md.ComplexTensor(rng.uniform(-1, 1, extents), rng.uniform(-1, 1, extents))
        blocks, _ = md.decompose(x.astype(dtype), shape)
        plan = _plan(engine, extents, grid, mode)
        layout = "x".join(map(str, extents)) + "-on-" + "x".join(map(str, grid))
        for workers, (slab, slab_bytes) in itertools.product(WORKERS, SLABS):
            saved, mesh_module.SLAB_BYTES = mesh_module.SLAB_BYTES, slab_bytes
            try:
                digest = _digest(*_run(engine, plan, blocks, workers))
            finally:
                mesh_module.SLAB_BYTES = saved
            yield f"{engine}/{mode.value}/workers{workers}/slab-{slab}/{layout}{suffix}", digest


def plans(layouts=LAYOUTS):
    """Yield (name, SHA-256 of its ``ring_blocks`` terms) for every kdft plan, in a fixed order."""
    samplings = (("uniform", "kdft-forward"), ("nonuniform", "kdft-nonuniform"))
    for (extents, grid), (sampling, engine), mode in itertools.product(
            layouts, samplings, md.PrecisionMode):
        h = hashlib.sha256()
        for dim in _plan(engine, extents, grid, mode).ring_blocks:
            for term in itertools.chain(*dim):
                h.update(f"{term.dtype} {term.shape}".encode())
                h.update(term.tobytes())
        layout = "x".join(map(str, extents)) + "-on-" + "x".join(map(str, grid))
        yield f"kdft-plan/{mode.value}/{sampling}/{layout}", h.hexdigest()


def _read(path):
    with open(path) as fh:
        return dict(line.split() for line in fh if line.strip())


def compare(path_a, path_b):
    """The names whose digests differ between two digest files, or that one lacks."""
    a, b = _read(path_a), _read(path_b)
    return [name for name in {**a, **b} if name != "all" and a.get(name) != b.get(name)]


def main(layouts=LAYOUTS):
    lines = [f"{name} {digest}" for name, digest in itertools.chain(cases(layouts), plans(layouts))]
    lines.append("all " + hashlib.sha256("\n".join(lines).encode()).hexdigest())
    print("\n".join(lines))


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="print the names whose digests differ between two digest files")
    args = parser.parse_args()
    if args.compare:
        differing = compare(*args.compare)
        print("\n".join(differing) if differing else "no case differs")
        sys.exit(1 if differing else 0)
    main()
