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
Then each engine runs once on a per-core list of blocks built by hand and
once on :func:`meshdft.decompose`'s blocks (names ending ``/list`` and
``/blocks``, which must agree), and the ``meshdft`` command line runs tiny
``transform`` and ``scaling`` invocations (names starting ``cli/``), each
hashing every file it writes and its standard output, and each demo under
``demos/`` runs in a fresh interpreter that imports the same ``meshdft``
(names starting ``demo/``), hashing its exit code and standard output. The
last line hashes every line before it.

``--compare A B`` reads two such files and prints the names whose digests
differ or that only one file has, one a line; it exits 1 if there are any.

kdft f64 and f32 bits depend on the BLAS build and the CPU
(``meshdft.matmul_mixed``), so compare digests made on one machine. A digest
is no golden value to check a tree against.
"""

import argparse
import contextlib
import glob
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile

import numpy as np

import meshdft as md
from meshdft import cli
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
# (name, argv): command lines small enough for the test suite; "{dir}" is a
# fresh directory, and "points.json" in it holds nonuniform points for 8 x 4
CLI_RUNS = (
    ("transform/kdft-16-on-4-f64", ["transform", "--algo", "kdft", "--dims", "16",
                                    "--shape", "4", "--gen", "random", "--seed", "3"]),
    ("transform/fft-8x4x4-on-2x1x2-f32-workers2",
     ["transform", "--algo", "fft", "--dims", "8x4x4", "--shape", "2x1x2",
      "--precision", "f32", "--gen", "random", "--seed", "4", "--workers", "2"]),
    ("transform/fft-64-on-8-bf16split3", ["transform", "--algo", "fft", "--dims", "64",
                                          "--shape", "8", "--precision", "bf16split3",
                                          "--gen", "tone:5"]),
    ("transform/kdft-8x4-on-2x2-nonuniform",
     ["transform", "--algo", "kdft", "--dims", "8x4", "--shape", "2x2", "--gen", "random",
      "--sampling", "nonuniform", "--points-file", "{dir}/points.json"]),
    ("scaling/strong-fft-64-f32", ["scaling", "--algo", "fft", "--mode", "strong",
                                   "--dims", "64", "--sweep", "1,2,3,4,8",
                                   "--precision", "f32", "--seed", "5"]),
    ("scaling/weak-kdft-on-2", ["scaling", "--algo", "kdft", "--mode", "weak", "--shape", "2",
                                "--sweep", "8,16,8", "--workers", "2"]),
)


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


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


def _hand_built(x, grid):
    """Per-core blocks of ``x`` on ``grid`` as a list, each cut out by its coordinates."""
    block = tuple(n // p for n, p in zip(x.shape, grid))
    out = []
    for core in range(int(np.prod(grid))):
        at = np.unravel_index(core, grid)
        cut = tuple(slice(c * b, (c + 1) * b) for c, b in zip(at, block))
        out.append(md.ComplexTensor(x.re[cut], x.im[cut]))
    return out


def listed(layouts=LAYOUTS):
    """Yield (name, SHA-256) for each engine fed a hand-built per-core list, then
    :func:`meshdft.decompose`'s blocks: f32 at workers 2, on the last layout."""
    extents, grid = layouts[-1]
    rng = np.random.default_rng(len(extents) + grid[0])
    x = md.ComplexTensor(rng.uniform(-1, 1, extents), rng.uniform(-1, 1, extents))
    layout = "x".join(map(str, extents)) + "-on-" + "x".join(map(str, grid))
    for engine in ("kdft-forward", "fft"):
        plan = _plan(engine, extents, grid, md.PrecisionMode.F32)
        for kind, blocks in (("list", _hand_built(x, grid)),
                             ("blocks", md.decompose(x, md.ComputationShape(*grid))[0])):
            digest = _digest(*_run(engine, plan, blocks, 2))
            yield f"{engine}/f32/workers2/{layout}/{kind}", digest


def _points_file(path):
    rng = np.random.default_rng(8)
    dims = [[[float(np.cos(a)), float(np.sin(a))] for a in rng.uniform(0, 2 * np.pi, n)]
            for n in (8, 4)]
    with open(path, "w") as fh:
        json.dump({"dims": dims}, fh)


def cli_runs():
    """Yield (name, SHA-256) for each :data:`CLI_RUNS` command: its exit code, its
    standard output and every file it writes (``--output`` and its sidecar,
    ``--report``, or the sweep's report JSON and CSV), in a fresh directory."""
    for name, argv in CLI_RUNS:
        with tempfile.TemporaryDirectory() as tmp:
            _points_file(os.path.join(tmp, "points.json"))
            argv = [a.replace("{dir}", tmp) for a in argv]
            if argv[0] == "transform":
                argv += ["--output", os.path.join(tmp, "out.bin"),
                         "--report", os.path.join(tmp, "report.json")]
            else:
                argv += ["--report", os.path.join(tmp, "sweep")]
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = cli.main(argv)
            h = hashlib.sha256(f"exit {code}\n".encode())
            h.update(stdout.getvalue().replace(tmp, "{dir}").encode())
            for file in sorted(os.listdir(tmp)):
                if file != "points.json":
                    with open(os.path.join(tmp, file), "rb") as fh:
                        h.update(f"{file}\n".encode() + fh.read())
        yield f"cli/{name}", h.hexdigest()


def demos():
    """Yield (name, SHA-256) for each of :data:`DEMOS`: its exit code and standard
    output, run from the repository root by a fresh interpreter that imports the
    ``meshdft`` this process imported."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(md.__file__)))
    for path in DEMOS:
        proc = subprocess.run([sys.executable, path], capture_output=True, timeout=300,
                              cwd=ROOT, env=env)
        h = hashlib.sha256(f"exit {proc.returncode}\n".encode() + proc.stdout)
        yield f"demo/{os.path.basename(path)[:-3]}", h.hexdigest()


def _read(path):
    with open(path) as fh:
        return dict(line.split() for line in fh if line.strip())


def compare(path_a, path_b):
    """The names whose digests differ between two digest files, or that one lacks."""
    a, b = _read(path_a), _read(path_b)
    return [name for name in {**a, **b} if name != "all" and a.get(name) != b.get(name)]


def main(layouts=LAYOUTS):
    lines = [f"{name} {digest}" for name, digest in itertools.chain(
        cases(layouts), plans(layouts), listed(layouts), cli_runs(), demos())]
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
