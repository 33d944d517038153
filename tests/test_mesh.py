"""Collectives, the communication ledger, and per-core execution."""

from concurrent.futures import Future, ThreadPoolExecutor
import json
import os

import numpy as np
import pytest

import meshdft as md
from meshdft import mesh as mesh_module
from meshdft.ctensor import contract
from meshdft.mesh import CommLedger, LEDGER_FIELDS, _openblas_threads
from helpers import F32, F64, BF16, rand_tensor


def vec(*values):
    return md.ComplexTensor(np.array(values, dtype=np.float64), np.zeros(len(values)))


# -- ledger ------------------------------------------------------------------


def test_ledger_counters_and_tags():
    ledger = CommLedger()
    ledger.record_permute(100, tag="dim1")
    ledger.record_permute(50, tag="dim2")
    ledger.record_all_to_all(30, tag="dim1")
    ledger.add_flops("einsum", 7, tag="dim1")
    ledger.add_flops("local_fft", 9, tag="dim2")
    assert ledger.as_dict() == {
        "permute_count": 2,
        "all_to_all_count": 1,
        "bytes_moved": 180,
        "einsum_flops": 7,
        "local_fft_flops": 9,
    }
    per = ledger.per_tag()
    assert per["dim1"]["permute_count"] == 1
    assert per["dim1"]["bytes_moved"] == 130
    assert per["dim2"]["local_fft_flops"] == 9
    with pytest.raises(md.ArgumentError):
        ledger.add_flops("matmul", 1)


def test_ledger_json_field_names_are_pinned():
    ledger = CommLedger()
    doc = json.loads(ledger.to_json())
    assert tuple(doc.keys()) == LEDGER_FIELDS
    assert LEDGER_FIELDS == (
        "permute_count",
        "all_to_all_count",
        "bytes_moved",
        "einsum_flops",
        "local_fft_flops",
    )


# -- permutes (one-step rings) -----------------------------------------------


def stacked(values):
    """Stacked (re, im) planes of per-core tensors."""
    return np.stack([v.re for v in values]), np.stack([v.im for v in values])


def run_permutes(mesh, groups, payloads, times=1, tag=""):
    """``times`` permutes of stacked payloads: a ring whose last step copies
    every payload to the core that holds it then."""
    x = np.stack(payloads)
    out = np.full_like(x, np.nan)
    view = mesh._check_groups(groups)
    x3, out3 = (a.reshape(view + a.shape[1:]) for a in (x, out))

    def kernel(step, box, held, moves, table):
        if step == times:
            for src, dst in moves:
                out3[dst] = held[:, src]

    with mesh.cores() as each:
        held = each(lambda box: x3[box], view, x[0].nbytes)
        mesh.ring(each, groups, held, x[0].nbytes, kernel, times, tag)
    return out


def test_permute_three_cycle():
    mesh = md.MeshSim(3)
    payloads = [np.array([float(i)]) for i in range(3)]
    out = run_permutes(mesh, ((0, 1, 2),), payloads)
    assert out[:, 0].tolist() == [1.0, 2.0, 0.0]
    assert mesh.ledger.permute_count == 1
    assert mesh.ledger.bytes_moved == 3 * payloads[0].nbytes


def test_permute_identity_and_cycle_order():
    mesh = md.MeshSim(3)
    payloads = [np.array([float(i)]) for i in range(3)]
    out = run_permutes(mesh, ((0,), (1,), (2,)), payloads)
    assert out[:, 0].tolist() == [0.0, 1.0, 2.0]
    # a 3-cycle applied three times restores the original assignment
    state = run_permutes(mesh, ((0, 1, 2),), payloads, times=3)
    assert state[:, 0].tolist() == [0.0, 1.0, 2.0]
    assert mesh.ledger.permute_count == 4


def test_ring_groups_follow_cycle_notation():
    # member i receives from member i+1: 0 <- 2 <- 4 <- 0 and 1 <- 3 <- 5 <- 1,
    # whatever the order of the groups
    mesh = md.MeshSim(6)
    payloads = [np.array([float(i)]) for i in range(6)]
    out = run_permutes(mesh, ((1, 3, 5), (0, 2, 4)), payloads)
    assert out[:, 0].tolist() == [2.0, 3.0, 4.0, 5.0, 0.0, 1.0]
    out = run_permutes(mesh, ((1, 3, 5), (0, 2, 4)), payloads, times=2)
    assert out[:, 0].tolist() == [4.0, 5.0, 0.0, 1.0, 2.0, 3.0]
    # every step moves the payloads of all six group members
    assert mesh.ledger.permute_count == 3
    assert mesh.ledger.bytes_moved == 3 * 6 * payloads[0].nbytes
    # a cycle out of core order is no line of the stacked core axis
    with pytest.raises(md.CommunicationError, match="lines of a view"):
        run_permutes(md.MeshSim(4), ((0, 2, 1), (3,)), payloads[:4])


def test_ring_on_grid_lines_shifts_each_line():
    shape = md.ComputationShape(2, 2, 2)
    payloads = [np.array([float(i)]) for i in range(8)]
    out = run_permutes(md.MeshSim(shape), shape.lines(2), payloads)
    assert out[:, 0].tolist() == [1.0, 0.0, 3.0, 2.0, 5.0, 4.0, 7.0, 6.0]
    assert md.MeshSim(shape)._check_groups(shape.lines(1)) == (2, 2, 2)


def _ring_with_no_payloads(mesh, groups, planes):
    with mesh.cores() as each:
        mesh.ring(each, groups, [], 0, lambda *args: None, 1)


COLLECTIVES = {
    "AllToAll": lambda mesh, groups, planes: mesh.all_to_all_groups(groups, planes),
    "Ring": _ring_with_no_payloads,
}


@pytest.mark.parametrize("collective", COLLECTIVES.values(), ids=COLLECTIVES.keys())
def test_core_groups_are_checked_in_one_place(collective):
    mesh = md.MeshSim(3)
    planes = stacked([vec(*range(6))] * 3)
    # an empty group, a core off the mesh, a core in two groups, a core twice
    # in one, and groups that are no lines of the core axis
    for groups in (((0, 1), ()), ((0, 1, 3),), ((0, 1), (1, 2)), ((2, 2),), ((0, 2, 1),),
                   ((0, 1),)):
        with pytest.raises(md.CommunicationError) as err:
            collective(mesh, groups, planes)
        assert err.traceback[-1].name == "_check_groups"
    assert mesh.ledger.as_dict() == CommLedger().as_dict()


def test_both_collectives_reject_an_empty_group_list():
    mesh = md.MeshSim(2)
    for collective in COLLECTIVES.values():
        with pytest.raises(md.CommunicationError, match="no core groups") as err:
            collective(mesh, (), stacked([vec(0.0, 1.0)] * 2))
        assert err.traceback[-1].name == "_check_groups"
    assert mesh.ledger.as_dict() == CommLedger().as_dict()


def test_permute_preserves_payload_multiset():
    mesh = md.MeshSim(4)
    payloads = [rand_tensor((2,), seed=i).re for i in range(4)]
    out = run_permutes(mesh, ((0, 1, 2, 3),), payloads)
    before = sorted(tuple(p) for p in payloads)
    after = sorted(tuple(p) for p in out)
    assert before == after


def test_permute_validation():
    mesh = md.MeshSim(3)
    payloads = [np.array([float(i)]) for i in range(3)]
    with pytest.raises(md.CommunicationError):
        run_permutes(mesh, ((0, 1, 5),), payloads)
    # one held entry per slab of the groups' view
    with pytest.raises(md.ArgumentError, match="expected 1 values, one per slab"):
        with mesh.cores() as each:
            mesh.ring(each, ((0, 1, 2),), [1, 2], 8, lambda *args: None, 1)
    assert mesh.ledger.as_dict() == CommLedger().as_dict()


# -- all_to_all --------------------------------------------------------------


def test_all_to_all_single_core_is_identity():
    mesh = md.MeshSim(1)
    x = vec(1.0, 2.0)
    re, im = mesh.all_to_all_groups(((0,),), stacked([x]))
    assert np.array_equal(re[0], x.re)
    assert mesh.ledger.all_to_all_count == 1


def test_all_to_all_two_core_transpose():
    mesh = md.MeshSim(2)
    re, _ = mesh.all_to_all_groups(((0, 1),), stacked([vec(10.0, 11.0), vec(20.0, 21.0)]))
    assert np.array_equal(re[0], [10.0, 20.0])
    assert np.array_equal(re[1], [11.0, 21.0])
    assert mesh.ledger.bytes_moved == 2 * vec(0.0, 0.0).nbytes


def test_all_to_all_hands_out_strided_slices():
    # 8-element payloads on 4 members: member i gets [p0[i], p0[i+4], p1[i], p1[i+4], ...]
    mesh = md.MeshSim(4)
    payloads = [vec(*(10.0 * s + j for j in range(8))) for s in range(4)]
    re, _ = mesh.all_to_all_groups(((0, 1, 2, 3),), stacked(payloads))
    for i in range(4):
        want = [10.0 * s + j for s in range(4) for j in (i, i + 4)]
        assert np.array_equal(re[i], want)


def test_all_to_all_validation():
    mesh = md.MeshSim(2)
    with pytest.raises(md.CommunicationError, match="one shape and dtype"):
        mesh.all_to_all_groups(((0, 1),), ([np.zeros(2), np.zeros(1)],))
    with pytest.raises(md.CommunicationError, match="one shape and dtype"):
        mesh.all_to_all_groups(((0, 1),), ([np.zeros(2), [0.0, 0.0]],))
    with pytest.raises(md.CommunicationError, match="split axis 1 out of range"):
        mesh.all_to_all_groups(((0, 1),), stacked([vec(1.0, 2.0), vec(3.0, 4.0)]), split_axis=1)
    with pytest.raises(md.CommunicationError, match="does not split into 2"):
        mesh.all_to_all_groups(((0, 1),), stacked([vec(1.0, 2.0, 3.0), vec(4.0, 5.0, 6.0)]))
    # one payload per core, however many cores the groups name
    with pytest.raises(md.CommunicationError, match="expected 2 payloads, got 1"):
        mesh.all_to_all_groups(((0, 1),), stacked([vec(1.0, 2.0)]))
    with pytest.raises(md.CommunicationError, match="expected 2 payloads, got 3"):
        mesh.all_to_all_groups(((0, 1),), stacked([vec(1.0, 2.0)] * 3))


@pytest.mark.parametrize("split_axis", [0, 1, 2, -1])
def test_all_to_all_groups_matches_chunk_transpose(split_axis):
    """Member i of a group gets slices i, i+n, ... of every member, joined in group order."""
    mesh = md.MeshSim(8)
    values = [rand_tensor((4, 8, 4), seed=i) for i in range(8)]
    groups = ((0, 2), (4, 6), (1, 3), (5, 7))
    out = mesh.all_to_all_groups(groups, stacked(values), split_axis=split_axis, tag="t")
    for g in groups:
        n, extent = len(g), values[g[0]].shape[split_axis]
        for i, c in enumerate(g):
            strided = np.arange(i, extent, n)
            want = np.concatenate(
                [np.take(values[s].to_complex(), strided, axis=split_axis) for s in g],
                axis=split_axis,
            )
            assert np.array_equal(out[0][c] + 1j * out[1][c], want)
    nbytes = sum(len(g) * values[g[0]].nbytes for g in groups)
    assert mesh.ledger.per_tag() == {"t": {
        "permute_count": 0, "all_to_all_count": 1, "bytes_moved": nbytes,
        "einsum_flops": 0, "local_fft_flops": 0,
    }}
    # per-core lists of planes give the same stacked planes
    listed = md.MeshSim(8).all_to_all_groups(groups, tuple(map(list, stacked(values))), split_axis)
    assert all(np.array_equal(a, b) for a, b in zip(out, listed))


def test_all_to_all_groups_one_ledger_record():
    mesh = md.MeshSim(4)
    planes = stacked([vec(float(10 * i), float(10 * i + 1)) for i in range(4)])
    re, _ = mesh.all_to_all_groups(((0, 1), (2, 3)), planes)
    assert np.array_equal(re[0], [0.0, 10.0])
    assert np.array_equal(re[1], [1.0, 11.0])
    assert np.array_equal(re[3], [21.0, 31.0])
    assert mesh.ledger.all_to_all_count == 1
    with pytest.raises(md.CommunicationError):
        mesh.all_to_all_groups(((0, 1), (1, 2)), planes)
    with pytest.raises(md.CommunicationError):
        mesh.all_to_all_groups(((0, 9),), planes)


# -- per-core execution -------------------------------------------------------

# a core of this many bytes fills a slab, so every slab holds one core
ONE_CORE = mesh_module.SLAB_BYTES


def test_slabs_tile_the_view_within_the_byte_bound():
    slabs = mesh_module._slabs((2, 4, 3), ONE_CORE // 8, ONE_CORE, 1)
    # 8 cores fit: whole lines of 3, two members at a time
    assert slabs[:2] == ((slice(0, 1), slice(0, 2), slice(0, 3)),
                         (slice(0, 1), slice(2, 4), slice(0, 3)))
    assert len(slabs) == 4
    assert len(mesh_module._slabs((2, 4, 3), ONE_CORE, ONE_CORE, 1)) == 24
    assert mesh_module._slabs((2, 4, 3), 1, ONE_CORE, 1) == (
        (slice(0, 2), slice(0, 4), slice(0, 3)),)
    # two threads get a slab each, however small the cores
    assert mesh_module._slabs((2, 4, 3), 1, ONE_CORE, 2) == (
        (slice(0, 1), slice(0, 4), slice(0, 3)), (slice(1, 2), slice(0, 4), slice(0, 3)))


def test_spmd_plain_map_without_collectives():
    mesh = md.MeshSim(4)
    with mesh.cores(workers=2) as each:
        out = each(lambda box: box[1].start * 1.5, (1, 4, 1), ONE_CORE)
    assert out == [0.0, 1.5, 3.0, 4.5]
    assert mesh.ledger.as_dict() == CommLedger().as_dict()


def test_spmd_generator_ring_program():
    mesh = md.MeshSim(3)
    groups = ((0, 1, 2),)
    x = run_permutes(mesh, groups, [np.array([float(i)]) for i in range(3)], tag="step")
    x = run_permutes(mesh, groups, list(x), tag="step")
    # two shift-by-one steps: core i ends up with the payload of core i+2
    assert x[:, 0].tolist() == [2.0, 0.0, 1.0]
    assert mesh.ledger.permute_count == 2
    assert mesh.ledger.per_tag()["step"]["permute_count"] == 2


def test_spmd_all_to_all_request():
    # per-core compute, the collective, then per-core compute again
    mesh = md.MeshSim(2)
    re = np.array([[10.0, 11.0], [20.0, 21.0]])
    with mesh.cores(workers=2) as each:
        each(lambda box: re[box[1]].__imul__(2.0), (1, 2, 1), ONE_CORE)
        re, _ = mesh.all_to_all_groups(((0, 1),), (re, np.zeros_like(re)))
        each(lambda box: re[box[1]].__imul__(0.5), (1, 2, 1), ONE_CORE)
    assert np.array_equal(re, [[10.0, 20.0], [11.0, 21.0]])


def test_spmd_flops_merge_deterministically():
    # per-slab counts come back in core order from every thread
    mesh = md.MeshSim(3)
    with mesh.cores(workers=2) as each:
        counts = each(lambda box: 10 * (box[1].start + 1), (1, 3, 1), ONE_CORE)
    assert counts == [10, 20, 30]
    mesh.ledger.add_flops("einsum", sum(counts), tag="t")
    assert mesh.ledger.einsum_flops == 60
    assert mesh.ledger.per_tag()["t"]["einsum_flops"] == 60


def test_spmd_worker_count_does_not_change_anything():
    def program(mesh, each, x):
        groups = (range(mesh.num_cores),)
        view = mesh._check_groups(groups)
        sums = np.zeros_like(x)

        def kernel(step, box, held, moves, table):
            for src, (_, dst, _) in moves:
                sums[dst] += held[src] * (step + 1)

        held = each(lambda box: x[box[1]], view, ONE_CORE)
        mesh.ring(each, groups, held, ONE_CORE, kernel, mesh.num_cores - 1, tag="a")
        mesh.ledger.add_flops("einsum", sum(each(lambda box: 1, view, ONE_CORE)))
        return sums

    results = []
    ledgers = []
    for workers in (1, 2, 4):
        mesh = md.MeshSim(4)
        with mesh.cores(workers) as each:
            out = program(mesh, each, np.arange(4.0))
        results.append(out.tolist())
        ledgers.append(mesh.ledger.as_dict())
    assert results[0] == results[1] == results[2]
    assert ledgers[0] == ledgers[1] == ledgers[2]


def test_worker_pool_is_capped_at_the_core_count(monkeypatch):
    # a recording stand-in shows the pool size and the slabs without ever
    # starting more threads than the test asks for
    pools, slabs = [], []

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

        def submit(self, fn, *args):
            slabs.append(len(args[-1]))
            return super().submit(fn, *args)

    monkeypatch.setattr(mesh_module, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    mesh = md.MeshSim(2)
    with mesh.cores(workers=8) as each:
        each(lambda box: None, (1, 2, 1), ONE_CORE)
        re, _ = mesh.all_to_all_groups(((0, 1),), stacked([vec(0.0, 1.0), vec(2.0, 3.0)]))
        each(lambda box: None, (1, 2, 1), ONE_CORE)
    assert re.tolist() == [[0.0, 2.0], [1.0, 3.0]]
    # two rounds of per-core compute, one core per slab
    assert pools == [2]
    assert slabs == [1, 1, 1, 1]


@pytest.mark.parametrize("cpus,pool,slabs", [(3, [3], [1365, 1365, 1366]), (None, [1], [])])
def test_worker_pool_is_capped_at_the_host_cpus(monkeypatch, cpus, pool, slabs):
    # a stand-in pool runs each run of slabs inline, so no thread starts; an
    # unknown cpu count means one worker, which runs its slabs without the pool
    pools, submitted = [], []

    class InlinePool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            submitted.append(len(args[-1]))
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(mesh_module, "ThreadPoolExecutor", InlinePool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    mesh = md.MeshSim(4096)
    with mesh.cores(workers=4096) as each:
        out = each(lambda box: box[1].start, (1, 4096, 1), ONE_CORE)
    assert out == list(range(4096))
    assert pools == pool
    assert submitted == slabs


def test_spmd_input_validation():
    mesh = md.MeshSim(2)
    with pytest.raises(md.ArgumentError):
        with mesh.cores() as each:
            each(lambda box, x: x, (1, 2, 1), ONE_CORE, [vec(0.0)])
    with pytest.raises(md.ArgumentError):
        with mesh.cores(workers=0):
            pass
    with pytest.raises(md.ArgumentError):
        md.MeshSim("2x2")


# -- BLAS threads ------------------------------------------------------------

needs_openblas = pytest.mark.skipif(
    _openblas_threads() is None, reason="numpy's bundled OpenBLAS not found"
)


@pytest.fixture
def blas_threads():
    """Set OpenBLAS to 2 threads for the test; yields (get, set)."""
    get, set_ = _openblas_threads()
    before = get()
    set_(2)
    yield get, set_
    set_(before)


@needs_openblas
@pytest.mark.parametrize("workers", [1, 2])
def test_blas_runs_single_threaded_inside_a_run(blas_threads, workers):
    get, _ = blas_threads

    during = []

    def kernel(step, box, held, moves, table):
        during.append(get())

    mesh = md.MeshSim(4)
    with mesh.cores(workers) as each:
        before = each(lambda box: get(), (1, 4, 1), ONE_CORE)
        mesh.ring(each, (range(4),), [None] * 4, ONE_CORE, kernel, 1)
    assert before == [1] * 4
    assert during == [1] * 8
    assert get() == 2


@needs_openblas
@pytest.mark.parametrize("workers", [1, 2])
def test_blas_threads_restored_after_a_core_raises(blas_threads, workers):
    get, _ = blas_threads

    def program(box):
        assert get() == 1
        raise RuntimeError("core failed")

    mesh = md.MeshSim(2)
    with pytest.raises(RuntimeError, match="core failed"):
        with mesh.cores(workers) as each:
            each(program, (1, 2, 1), ONE_CORE)
    assert get() == 2


@needs_openblas
@pytest.mark.parametrize("mode", [F64, F32, BF16])
@pytest.mark.parametrize("extents", [(512,), (128, 256)])
def test_contract_bits_do_not_depend_on_blas_threads(blas_threads, mode, extents):
    # sizes above OpenBLAS's threshold for splitting a product across threads
    _, set_ = blas_threads
    k = extents[0]
    matrix = rand_tensor((k, k), seed=90)
    x = rand_tensor(extents, seed=91)
    outs = []
    for threads in (1, 2):
        set_(threads)
        outs.append(contract(matrix, x, mode=mode))
    assert np.array_equal(outs[0].re, outs[1].re)
    assert np.array_equal(outs[0].im, outs[1].im)
