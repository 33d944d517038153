"""Compare the three precision modes on the same transform.

f64 is the reference. f32 runs everything in single precision. bf16split3
emulates a matrix unit that only multiplies bf16 numbers: every f32 operand
is split into three bf16 terms (8 mantissa bits each, 24 total) and the
contraction accumulates the six significant partial products in a fixed
order. The result is close to f32 quality even though no multiply saw more
than 8 mantissa bits.
"""

import numpy as np

import meshdft as md
from meshdft.ctensor import _split3

n = 64
rng = np.random.default_rng(3)
x = md.ComplexTensor(rng.uniform(-1, 1, n), rng.uniform(-1, 1, n))
shape = md.ComputationShape(4, 1, 1)
blocks, assignment = md.decompose(x, shape)
ref = np.fft.fft(x.to_complex())

print(f"{n}-point transform on 4 cores, relative L2 error vs numpy:")
for mode in md.PrecisionMode:
    plan = md.create_kdft_plan(shape, (n,), mode)
    mesh = md.MeshSim(shape)
    out = md.gather_to_host(md.kdft_forward(mesh, plan, blocks), assignment)
    err = np.linalg.norm(out.to_complex() - ref) / np.linalg.norm(ref)
    print(f"  {mode.value:<12} {err:.3e}")

print()
print("what the 3-term split does to a single float:")
values = np.array([np.pi, 0.1, 12345.678], dtype=np.float32)
for value, *floats in zip(values, *_split3(values)):
    recon = sum(float(f) for f in floats)
    print(f"  {float(value):.9g} = {floats[0]:g} + {floats[1]:g} + {floats[2]:g}"
          f"  (residual {float(value) - recon:.3e})")
