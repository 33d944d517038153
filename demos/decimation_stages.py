"""Walk through the decimation engine's stages on a single dimension.

Stages 2 and 3 run here one at a time; stage 4 is computed on the host from
its formula and checked against fft_forward, which runs every stage.

Pipeline for N samples on P cores (M = N/P each), Bailey's four-step FFT:
  1. every core holds a contiguous block of the input;
  2. one all_to_all regroups elements so core at line position i holds the
     decimated subsequence x[b::P] (with b the offset for that position);
  3. each core does an in-order FFT of its M points, as matrix products, and
     multiplies row r by the twiddle exp(-2j*pi*b*r/N) (the engine folds the
     twiddles into the FFT's last stage, as exact table entries);
  4. a shift-by-one ring makes the P-point DFT across the cores: core p adds
     every payload times c = exp(-2j*pi*b*p/P), leaving it output rows
     [p*M, (p+1)*M). The ring is the one kdft runs; a payload's rows re and
     im take c as the real 2x2 block [[Re c, -Im c], [Im c, Re c]], one
     matrix product per step where kdft's complex blocks take two.
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

# the engine's gather for M >= P: one group of the whole line, on the
# blocks' stacked planes; it returns stacked planes, one row per core
planes = (np.stack([b.re for b in blocks]), np.stack([b.im for b in blocks]))
gathered = [md.ComplexTensor(re, im) for re, im in zip(*mesh.all_to_all_groups(
    [range(parts)], planes, tag="gather"))]
offsets = md.gather_positions(parts, m)
print("stage 2, after one all_to_all each core holds a subsequence:")
ok = True
for pos, beta in enumerate(offsets):
    want = x.to_complex()[beta::parts]
    ok = ok and np.array_equal(gathered[pos].to_complex(), want)
    print(f"  position {pos}: x[{beta}::{parts}]")
assert ok

print("stage 3, local in-order FFT of each subsequence, times its twiddles")
r = np.arange(m)
twiddled = [np.exp(-2j * np.pi * beta * r / n) * md.local_fft(g).to_complex()
            for g, beta in zip(gathered, offsets)]

# stage 4 on the host, X[p*M + r] = sum_b c * twiddled_b[r], c = exp(-2j*pi*b*p/P),
# each term as the ring makes it, the real 2x2 block of c times the rows re
# and im; it checks the engine's ring, which runs stages 2-4 on a mesh of its own
four_step = np.zeros(n, dtype=complex)
for p in range(parts):
    for pos, beta in enumerate(offsets):
        c = np.exp(-2j * np.pi * beta * p / parts)
        y = twiddled[pos]
        re, im = np.array([[c.real, -c.imag], [c.imag, c.real]]) @ np.array([y.real, y.imag])
        four_step[p * m:(p + 1) * m] += re + 1j * im
engine_mesh = md.MeshSim(shape)
plan = md.create_fft_plan(shape, (n,))
combined = md.fft_forward(engine_mesh, plan, blocks)

print("stage 4, P-point DFT across the cores; compare with numpy:")
full = np.fft.fft(x.to_complex())
for p in range(parts):
    got = combined[p].to_complex()
    diff = np.max(np.abs(got - full[p * m : (p + 1) * m]))
    print(f"  core {p} rows [{p * m}:{(p + 1) * m}] max diff {diff:.2e}")
    assert diff < 1e-12
    assert np.max(np.abs(got - four_step[p * m : (p + 1) * m])) < 1e-12
out = md.gather_to_host(combined, assignment)
assert np.max(np.abs(out.to_complex() - full)) < 1e-12

print()
# stage 3 ran host-side, outside the mesh, so its flops are not metered here
print("ledger for stage 2:          ", mesh.ledger.as_dict())
print("fft_forward ledger:          ", engine_mesh.ledger.as_dict())
