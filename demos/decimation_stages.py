"""Run the decimation engine one stage at a time on a single dimension.

Pipeline for N samples on P cores (M = N/P each):
  1. every core holds a contiguous block of the input;
  2. one all_to_all regroups elements so core at line position i holds the
     decimated subsequence x[b::P] (with b the offset for that position);
  3. each core does an ordinary in-order radix-2 FFT of its M points;
  4. a shift-by-one pass applies per-frequency phase columns and sums,
     leaving core p with output rows [p*M, (p+1)*M).
"""

import numpy as np

import meshdft as md

n, parts = 16, 4
m = n // parts
rng = np.random.default_rng(11)
x = md.ComplexTensor(rng.uniform(-1, 1, n), rng.uniform(-1, 1, n))

shape = md.ComputationShape(parts, 1, 1)
mesh = md.MeshSim(shape)
blocks, assignment = md.decompose(x, shape)
print(f"N={n} on P={parts} cores, {m} elements each")
print("stage 1, contiguous blocks:")
for c, b in enumerate(blocks):
    print(f"  core {c}: x[{c * m}:{(c + 1) * m}]")

gathered = md.strided_gather(mesh, blocks)
offsets = md.gather_positions(parts, m)
print("stage 2, after one all_to_all each core holds a subsequence:")
ok = True
for pos, beta in enumerate(offsets):
    want = x.to_complex()[beta::parts]
    ok = ok and np.array_equal(gathered[pos].to_complex(), want)
    print(f"  position {pos}: x[{beta}::{parts}]")
assert ok

print("stage 3, local in-order FFT of each subsequence")
local = [md.local_fft(g) for g in gathered]

# with M >= P the gather leaves position i holding subsequence i, which is
# exactly the layout the standalone phase helper expects
assert offsets == tuple(range(parts))
combined = md.phase_adjust(mesh, local)

print("stage 4, phase combination; compare with numpy:")
full = np.fft.fft(x.to_complex())
for p in range(parts):
    got = combined[p].to_complex()
    diff = np.max(np.abs(got - full[p * m : (p + 1) * m]))
    print(f"  core {p} rows [{p * m}:{(p + 1) * m}] max diff {diff:.2e}")
    assert diff < 1e-12

print()
# stage 3 ran host-side, outside the mesh, so its flops are not metered here
print("ledger for the staged run:", mesh.ledger.as_dict())

# same thing end to end through the engine
mesh2 = md.MeshSim(shape)
plan = md.create_fft_plan(shape, (n,))
out = md.gather_to_host(md.fft_forward(mesh2, plan, blocks), assignment)
assert np.max(np.abs(out.to_complex() - full)) < 1e-12
print("fft_forward ledger:          ", mesh2.ledger.as_dict())
