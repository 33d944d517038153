"""Walk through the shift-by-one contraction schedule on three cores.

Each core starts with its own data block and its own row slice of the
transform matrix, split into three square column blocks. Per step a core
contracts the column block matching the data it currently holds, then the
ring rotates every payload one position. After P-1 rotations every core
has touched every block exactly once and holds a finished output slice.
"""

import numpy as np

import meshdft as md


def main():
    shape = md.ComputationShape(3, 1, 1)
    mesh = md.MeshSim(shape)
    plan = md.create_kdft_plan(shape, (6,))

    x = np.array([10.0, 11.0, 20.0, 21.0, 30.0, 31.0])
    blocks = [md.ComplexTensor(x[2 * c : 2 * c + 2], np.zeros(2)) for c in range(3)]

    print("input vector:", x)
    print("core c starts with x[2c:2c+2] and rows [2c, 2c+2) of the matrix")
    print()

    trace = []
    results = md.kdft_forward(mesh, plan, blocks, trace=trace)

    for s, step in enumerate(trace):
        print(f"step {s}:")
        for ev in step["einsums"]:
            print(
                f"  core {ev['core']} contracts column block {ev['v_col']}"
                f" against payload starting {ev['x_first'].real:.0f}"
            )
        if step["pairs"] is not None:
            print(f"  ring permute, (source, target) pairs: {step['pairs']}")
        else:
            print("  last step, no permute needed")
    print()
    print(f"ledger: {mesh.ledger.permute_count} permutes for 3 cores (P-1 rule)")

    # the pieces really are the full matrix-vector product
    full = md.build_uniform(6).to_complex() @ x.astype(np.complex128)
    for c, res in enumerate(results):
        mine = res.to_complex()
        print(f"core {c} output {np.round(mine, 6)} vs direct {np.round(full[2 * c : 2 * c + 2], 6)}")
        assert np.max(np.abs(mine - full[2 * c : 2 * c + 2])) < 1e-12
    print("outputs match the dense product")


if __name__ == "__main__":
    main()
