"""Complex tensor container, contraction kernels, and the bf16 emulation."""

import copy
from pathlib import Path
import pickle

import numpy as np
import pytest

import meshdft as md
from meshdft.ctensor import Operand, Prepared, _split3, bf16_array, contract
from helpers import F64, F32, BF16, rand_tensor
from reference import Bf16Value, bf16_array_reference, bf16_split, scale_along_axis

MODES = (F64, F32, BF16)


# -- container ---------------------------------------------------------------


def test_tensor_basic_properties():
    t = md.ComplexTensor(np.zeros((2, 3)), np.ones((2, 3)))
    assert t.shape == (2, 3)
    assert t.rank == 2
    assert t.size == 6
    assert t.dtype == np.float64
    assert t.nbytes == 2 * 6 * 8


def test_tensor_rejects_bad_construction():
    with pytest.raises(md.DimensionError):
        md.ComplexTensor(np.zeros(2), np.zeros(3))
    with pytest.raises(md.DimensionError):
        md.ComplexTensor(np.zeros(()), np.zeros(()))  # rank 0
    with pytest.raises(md.DimensionError):
        md.ComplexTensor(np.zeros((2,) * 4), np.zeros((2,) * 4))
    with pytest.raises(md.ArgumentError):
        md.ComplexTensor(np.zeros(2, np.float64), np.zeros(2, np.float32))
    with pytest.raises(md.ArgumentError):
        md.ComplexTensor(np.zeros(2, np.int64), np.zeros(2, np.int64))
    with pytest.raises(md.ArgumentError):
        md.ComplexTensor(np.array([1.0, np.inf]), np.zeros(2))
    with pytest.raises(md.ArgumentError):
        md.ComplexTensor(np.array([1.0, np.nan]), np.zeros(2))


def test_tensor_is_immutable():
    t = md.ComplexTensor(np.zeros(2), np.zeros(2))
    with pytest.raises(AttributeError):
        t.re = np.ones(2)
    with pytest.raises(ValueError):
        t.re[0] = 1.0
    # the constructor copies: mutating the source array must not leak in
    src = np.zeros(2)
    t2 = md.ComplexTensor(src, src)
    src[0] = 5.0
    assert t2.re[0] == 0.0


@pytest.mark.parametrize("clone", [
    copy.copy, copy.deepcopy, lambda t: pickle.loads(pickle.dumps(t)),
], ids=["copy", "deepcopy", "pickle"])
def test_tensor_copies_and_pickles_through_the_constructor(clone):
    t = rand_tensor((3, 2), seed=4).astype(np.float32)
    got = clone(t)
    assert isinstance(got, md.ComplexTensor) and got.dtype == np.float32
    assert np.array_equal(got.re, t.re) and np.array_equal(got.im, t.im)
    assert not got.re.flags.writeable and not got.im.flags.writeable
    with pytest.raises(AttributeError):
        got.re = t.im


def test_tensor_complex_round_trip():
    values = np.arange(6, dtype=np.complex128).reshape(2, 3) + 1j
    t = md.ComplexTensor.from_complex(values)
    assert np.array_equal(t.to_complex(), values)


def test_tensor_add_scale_conj():
    a = rand_tensor((4,), seed=1)
    b = rand_tensor((4,), seed=2)
    assert np.allclose((a + b).to_complex(), a.to_complex() + b.to_complex())
    assert np.allclose(a.scaled(0.5).to_complex(), 0.5 * a.to_complex())
    assert np.array_equal(a.conj().to_complex(), a.to_complex().conj())
    with pytest.raises(md.DimensionError):
        a.add(rand_tensor((5,), seed=3))
    with pytest.raises(md.ArgumentError):
        a.add(b.astype(np.float32))


def test_astype_identity_returns_self():
    a = rand_tensor((4,), seed=1)
    assert a.astype(np.float64) is a
    assert a.astype(np.float32).dtype == np.float32


def test_astype_casts_once_and_keeps_the_overflow_scan(monkeypatch):
    a = rand_tensor((4,), seed=1)
    built = []
    init = md.ComplexTensor.__init__

    def counting_init(self, re, im):
        built.append(re.dtype)
        init(self, re, im)

    # the cast planes are fresh: wrapped as they are, not copied again
    monkeypatch.setattr(md.ComplexTensor, "__init__", counting_init)
    b = a.astype(np.float32)
    assert built == []
    assert np.array_equal(b.re, a.re.astype(np.float32))
    assert np.array_equal(b.im, a.im.astype(np.float32))
    assert not b.re.flags.writeable and not b.im.flags.writeable
    monkeypatch.undo()
    with np.errstate(over="ignore"), pytest.raises(md.ArgumentError, match="non-finite"):
        md.ComplexTensor([1e39], [0.0]).astype(np.float32)
    with pytest.raises(md.ArgumentError, match="float32 or float64"):
        a.astype(np.float16)


def test_precision_mode_parse():
    assert md.PrecisionMode.parse("f64") is F64
    assert md.PrecisionMode.parse("F64_reference") is F64
    assert md.PrecisionMode.parse("f32") is F32
    assert md.PrecisionMode.parse("bf16") is BF16
    assert md.PrecisionMode.parse("bf16split3") is BF16
    with pytest.raises(md.ArgumentError):
        md.PrecisionMode.parse("f16")


@pytest.mark.parametrize("mode", MODES)
def test_prepare_casts_and_only_bf16split3_splits(mode):
    plane = np.linspace(-1.0, 1.0, 12).reshape(3, 4)
    terms = mode.prepare(plane)
    if mode is BF16:
        want = _split3(plane.astype(np.float32))
        assert len(terms) == 3 and all(np.array_equal(t, w) for t, w in zip(terms, want))
    else:
        (term,) = terms
        assert term.dtype == mode.real_dtype
        assert np.array_equal(term, plane.astype(mode.real_dtype))
    # a plane already in the mode's dtype is not copied
    assert F64.prepare(plane)[0] is plane


def test_only_ctensor_names_the_split_mode():
    # every other module reaches bf16split3 through PrecisionMode.prepare/product
    src = Path(md.__file__).parent
    naming = sorted(p.name for p in src.glob("*.py") if "BF16_SPLIT3" in p.read_text())
    assert naming == ["ctensor.py"]


# -- contraction -------------------------------------------------------------


def test_contract_identity_leaves_tensor_unchanged():
    eye = md.ComplexTensor(np.eye(2), np.zeros((2, 2)))
    x = rand_tensor((2,), seed=5)
    out = contract(eye, x)
    assert np.array_equal(out.to_complex(), x.to_complex())


def test_contract_two_point_butterfly():
    m = md.ComplexTensor(np.array([[1.0, 1.0], [1.0, -1.0]]), np.zeros((2, 2)))
    x = md.ComplexTensor(np.array([1.0, 0.0]), np.zeros(2))
    out = contract(m, x)
    assert np.allclose(out.to_complex(), [1.0, 1.0])


def test_contract_matches_triple_loop_reference():
    """Random 4x4 matrix applied along axis 0 of a 4x3x2 tensor."""
    rng = np.random.default_rng(11)
    m = md.ComplexTensor(rng.standard_normal((4, 4)), rng.standard_normal((4, 4)))
    x = rand_tensor((4, 3, 2), seed=12)
    out = contract(m, x, axis=0)
    mc, xc = m.to_complex(), x.to_complex()
    ref = np.zeros((4, 3, 2), dtype=np.complex128)
    for i in range(4):
        for j in range(4):
            ref[i] += mc[i, j] * xc[j]
    assert np.max(np.abs(out.to_complex() - ref)) < 1e-13


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_contract_any_axis(axis):
    rng = np.random.default_rng(20 + axis)
    n = (3, 4, 5)[axis]
    m = md.ComplexTensor(rng.standard_normal((n, n)), rng.standard_normal((n, n)))
    x = rand_tensor((3, 4, 5), seed=21)
    out = contract(m, x, axis=axis)
    ref = np.moveaxis(
        np.tensordot(m.to_complex(), x.to_complex(), axes=([1], [axis])), 0, axis
    )
    assert np.max(np.abs(out.to_complex() - ref)) < 1e-12


def test_contract_rectangular_matrix_changes_extent():
    m = md.ComplexTensor(np.ones((2, 4)), np.zeros((2, 4)))
    x = rand_tensor((4, 3), seed=9)
    assert contract(m, x, axis=0).shape == (2, 3)


def test_contract_errors():
    m = md.ComplexTensor(np.eye(3), np.zeros((3, 3)))
    x = rand_tensor((4,), seed=1)
    with pytest.raises(md.DimensionError):
        contract(m, x)  # inner extent mismatch
    with pytest.raises(md.DimensionError):
        contract(x, x)  # matrix must be rank 2
    with pytest.raises(md.DimensionError):
        contract(m, rand_tensor((3,), seed=2), axis=1)
    with pytest.raises(md.ArgumentError):
        contract(np.eye(3), x)


@pytest.mark.parametrize("mode,tol", [(F64, 1e-12), (F32, 1e-5), (BF16, 1e-4)])
def test_contract_is_linear(mode, tol):
    rng = np.random.default_rng(31)
    m = md.ComplexTensor(rng.uniform(-1, 1, (8, 8)), rng.uniform(-1, 1, (8, 8)))
    x = rand_tensor((8,), seed=32)
    y = rand_tensor((8,), seed=33)
    lhs = contract(m, x.add(y), mode=mode).to_complex()
    rhs = contract(m, x, mode=mode).to_complex() + contract(m, y, mode=mode).to_complex()
    scale = max(1.0, np.max(np.abs(rhs)))
    assert np.max(np.abs(lhs - rhs)) / scale < tol


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("axis", [0, 1])
def test_contract_conjugate_matches_conjugated_matrix(mode, axis):
    # every mode rounds symmetrically, so conj(M @ conj(x)) is conj(M) @ x bit for bit
    rng = np.random.default_rng(35)
    m = md.ComplexTensor(rng.uniform(-1, 1, (6, 6)), rng.uniform(-1, 1, (6, 6)))
    x = rand_tensor((6, 6), seed=36)
    got = contract(m, x.conj(), axis=axis, mode=mode).conj()
    ref = contract(m.conj(), x, axis=axis, mode=mode)
    assert np.array_equal(got.re, ref.re) and np.array_equal(got.im, ref.im)


def _contract_split_per_product(matrix, tensor, axis, conjugate):
    """bf16split3 contraction as four ``matmul_mixed`` calls, each splitting both operands."""
    k = tensor.shape[axis]
    m_re = matrix.re.astype(np.float32)
    m_im = matrix.im.astype(np.float32)
    moved_shape = np.moveaxis(tensor.re, axis, 0).shape
    x_re = np.moveaxis(tensor.re, axis, 0).reshape(k, -1).astype(np.float32)
    x_im = np.moveaxis(tensor.im, axis, 0).reshape(k, -1).astype(np.float32)
    rr = md.matmul_mixed(m_re, x_re, BF16)
    ii = md.matmul_mixed(m_im, x_im, BF16)
    ri = md.matmul_mixed(m_re, x_im, BF16)
    ir = md.matmul_mixed(m_im, x_re, BF16)
    if conjugate:
        out_re, out_im = rr + ii, ri - ir
    else:
        out_re, out_im = rr - ii, ri + ir
    out_shape = (matrix.shape[0],) + moved_shape[1:]
    return (np.moveaxis(out_re.reshape(out_shape), 0, axis),
            np.moveaxis(out_im.reshape(out_shape), 0, axis))


@pytest.mark.parametrize("saturating", [False, True])
@pytest.mark.parametrize("axis", [0, 1, 2])
@pytest.mark.parametrize("conjugate", [False, True])
def test_bf16_contract_matches_split_per_product(conjugate, axis, saturating):
    rng = np.random.default_rng(37)
    x = rand_tensor((5, 6, 7), seed=38)
    if saturating:
        # planes between the largest finite bf16 (3.3895e38) and the f32
        # limit, where the leading term saturates; a small matrix keeps
        # the sums finite
        x = md.ComplexTensor(
            rng.choice([-1.0, 1.0], x.shape) * rng.uniform(3.38e38, 3.40e38, x.shape),
            rng.choice([-1.0, 1.0], x.shape) * rng.uniform(3.38e38, 3.40e38, x.shape),
        )
    k = x.shape[axis]
    scale = 1e-3 if saturating else 1.0
    m = md.ComplexTensor(rng.uniform(-scale, scale, (4, k)),
                         rng.uniform(-scale, scale, (4, k)))
    if conjugate:
        # the inverse's form, conj(M @ conj(x)), against conj(M) @ x
        got = contract(m, x.conj(), axis=axis, mode=BF16).conj()
    else:
        got = contract(m, x, axis=axis, mode=BF16)
    ref_re, ref_im = _contract_split_per_product(m, x, axis, conjugate)
    assert np.array_equal(got.re, ref_re) and np.array_equal(got.im, ref_im)


def test_bf16_contract_splits_each_plane_once(monkeypatch):
    # counted in elements, not calls: how the planes are grouped into
    # operands does not matter, only that each element is split once
    split_elements = []

    def counting(values):
        split_elements.append(values.size)
        return _split3(values)

    monkeypatch.setattr("meshdft.ctensor._split3", counting)
    m = md.ComplexTensor(np.eye(4), np.eye(4))
    x = rand_tensor((4, 3), seed=39)
    contract(m, x, mode=BF16)
    assert sum(split_elements) == 2 * m.size + 2 * x.size


@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("mode", MODES)
def test_contract_takes_prepared_operands(mode, axis):
    rng = np.random.default_rng(43)
    m = md.ComplexTensor(rng.uniform(-1, 1, (5, 6)), rng.uniform(-1, 1, (5, 6)))
    x = rand_tensor((6, 6), seed=44)
    ref = contract(m, x, axis=axis, mode=mode)
    got = contract(Prepared(m, mode), Operand(x, axis, mode), axis=axis, mode=mode)
    assert np.array_equal(got.re, ref.re) and np.array_equal(got.im, ref.im)
    other = F32 if mode is not F32 else F64
    with pytest.raises(md.ArgumentError):
        contract(Prepared(m, other), x, axis=axis, mode=mode)
    with pytest.raises(md.ArgumentError):
        contract(m, Operand(x, 1 - axis, mode), axis=axis, mode=mode)


def test_contract_composes_like_matrix_product():
    rng = np.random.default_rng(41)
    a = md.ComplexTensor(rng.uniform(-1, 1, (6, 6)), rng.uniform(-1, 1, (6, 6)))
    b = md.ComplexTensor(rng.uniform(-1, 1, (6, 6)), rng.uniform(-1, 1, (6, 6)))
    x = rand_tensor((6,), seed=42)
    ab = md.ComplexTensor.from_complex(a.to_complex() @ b.to_complex())
    lhs = contract(a, contract(b, x)).to_complex()
    rhs = contract(ab, x).to_complex()
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_scale_along_axis_matches_broadcast():
    x = rand_tensor((4, 3), seed=51)
    f = rand_tensor((3,), seed=52)
    out = scale_along_axis(x, 1, f)
    ref = x.to_complex() * f.to_complex()[None, :]
    assert np.max(np.abs(out.to_complex() - ref)) < 1e-14
    with pytest.raises(md.DimensionError):
        scale_along_axis(x, 0, f)
    with pytest.raises(md.DimensionError):
        scale_along_axis(x, 1, rand_tensor((3, 3), seed=53))


def _scale_split_per_product(tensor, axis, factors):
    """bf16split3 ``scale_along_axis`` as four products, each splitting both factors."""

    def mul_split3(x, y):
        x_terms = _split3(x)
        y_terms = _split3(y)
        acc = None
        for i, j in ((0, 0), (0, 1), (1, 0), (0, 2), (2, 0), (1, 1)):
            part = x_terms[i] * y_terms[j]
            acc = part if acc is None else acc + part
        return acc

    bshape = [1] * tensor.rank
    bshape[axis] = factors.shape[0]
    f_re = factors.re.astype(np.float32).reshape(bshape)
    f_im = factors.im.astype(np.float32).reshape(bshape)
    x_re = tensor.re.astype(np.float32)
    x_im = tensor.im.astype(np.float32)
    return (mul_split3(x_re, f_re) - mul_split3(x_im, f_im),
            mul_split3(x_re, f_im) + mul_split3(x_im, f_re))


@pytest.mark.parametrize("saturating", [False, True])
@pytest.mark.parametrize("axis", [0, 1, 2])
def test_bf16_scale_matches_split_per_product(axis, saturating):
    rng = np.random.default_rng(54)
    x = rand_tensor((5, 6, 7), seed=55)
    if saturating:
        # planes between the largest finite bf16 and the f32 limit, where the
        # leading term saturates; small factors keep the sums finite
        x = md.ComplexTensor(
            rng.choice([-1.0, 1.0], x.shape) * rng.uniform(3.38e38, 3.40e38, x.shape),
            rng.choice([-1.0, 1.0], x.shape) * rng.uniform(3.38e38, 3.40e38, x.shape),
        )
    scale = 1e-3 if saturating else 1.0
    n = x.shape[axis]
    f = md.ComplexTensor(rng.uniform(-scale, scale, n), rng.uniform(-scale, scale, n))
    got = scale_along_axis(x, axis, f, mode=BF16)
    ref_re, ref_im = _scale_split_per_product(x, axis, f)
    assert np.array_equal(got.re, ref_re) and np.array_equal(got.im, ref_im)


def test_bf16_scale_splits_each_plane_once(monkeypatch):
    calls = []

    def counting(values):
        calls.append(values.shape)
        return _split3(values)

    monkeypatch.setattr("meshdft.ctensor._split3", counting)
    scale_along_axis(rand_tensor((4, 3), seed=56), 1, rand_tensor((3,), seed=57),
                     mode=BF16)
    assert len(calls) == 4


# -- matmul ------------------------------------------------------------------


@pytest.mark.parametrize("mode", MODES)
def test_matmul_identity_is_exact(mode):
    rng = np.random.default_rng(71)
    a = rng.uniform(-1, 1, (5, 5)).astype(np.float32)
    out = md.matmul_mixed(np.eye(5, dtype=np.float32), a, mode)
    assert np.array_equal(out.astype(np.float32), a)


@pytest.mark.parametrize("mode", MODES)
def test_matmul_scalar_product(mode):
    out = md.matmul_mixed(np.array([[3.0]]), np.array([[5.0]]), mode)
    assert out.shape == (1, 1)
    assert out[0, 0] == 15.0


def test_matmul_f64_matches_numpy():
    rng = np.random.default_rng(72)
    a = rng.standard_normal((16, 8))
    b = rng.standard_normal((8, 12))
    assert np.max(np.abs(md.matmul_mixed(a, b, F64) - a @ b)) < 1e-12


def test_matmul_errors():
    with pytest.raises(md.DimensionError):
        md.matmul_mixed(np.zeros(3), np.zeros((3, 3)))
    with pytest.raises(md.DimensionError):
        md.matmul_mixed(np.zeros((2, 3)), np.zeros((4, 2)))
    with pytest.raises(md.ArgumentError):
        md.matmul_mixed(np.zeros((2, 2)), np.zeros((2, 2)), mode="f64")


def test_matmul_bf16_is_bit_reproducible():
    rng = np.random.default_rng(73)
    a = rng.uniform(-1, 1, (32, 32))
    b = rng.uniform(-1, 1, (32, 32))
    first = md.matmul_mixed(a, b, BF16)
    second = md.matmul_mixed(a, b, BF16)
    assert np.array_equal(first, second)


# -- bf16 --------------------------------------------------------------------


def test_bf16_value_round_trips_simple_constants():
    for v in (0.0, 1.0, -2.0, 0.5, 3.0):
        assert float(Bf16Value.from_float32(v)) == v


def test_bf16_rounds_ties_to_even():
    # 0x3F808000 is exactly halfway between 0x3F80 and 0x3F81: round down (even)
    half_down = np.frombuffer(np.uint32(0x3F808000).tobytes(), dtype=np.float32)[0]
    assert Bf16Value.from_float32(half_down).bits == 0x3F80
    # 0x3F818000 is halfway between 0x3F81 and 0x3F82: round up (even)
    half_up = np.frombuffer(np.uint32(0x3F818000).tobytes(), dtype=np.float32)[0]
    assert Bf16Value.from_float32(half_up).bits == 0x3F82


def test_bf16_array_round_trips_every_finite_pattern():
    bits = np.arange(0x10000, dtype=np.uint32)
    finite = (bits & 0x7F80) != 0x7F80  # exclude inf/nan exponents
    values = (bits[finite] << np.uint32(16)).view(np.float32)
    again = bf16_array(values)
    assert np.array_equal(again.view(np.uint32), values.view(np.uint32))


def test_bf16_relative_error_is_half_ulp():
    rng = np.random.default_rng(81)
    exp = rng.uniform(-120, 120, size=20000)
    x = (np.exp2(exp) * rng.choice([-1.0, 1.0], size=exp.size)).astype(np.float32)
    y = bf16_array(x)
    rel = np.abs(y.astype(np.float64) - x.astype(np.float64)) / np.abs(x).astype(np.float64)
    assert rel.max() <= 2.0**-8


def test_bf16_infinity_passes_through():
    assert Bf16Value.from_float32(np.float32("inf")).bits == 0x7F80
    assert np.isinf(Bf16Value(0x7F80).to_float32())
    assert np.isnan(Bf16Value(0x7FC0).to_float32())
    with pytest.raises(md.ArgumentError):
        Bf16Value(0x10000)


def test_bf16_array_saturation_clamps_to_max_finite():
    big = np.array([3.4e38, -3.4e38], dtype=np.float32)  # rounds to inf unclamped
    clamped = bf16_array(big)
    assert np.all(np.isfinite(clamped))
    assert clamped[0] == np.float32(3.3895314e38)
    assert clamped[1] == -clamped[0]


def test_split_of_exactly_representable_value():
    terms = bf16_split(1.0)
    assert [t.to_float32() for t in terms] == [1.0, 0.0, 0.0]
    assert all(t.to_float32() == 0.0 for t in bf16_split(0.0))


def test_split_of_pi_recombines_exactly():
    # 24 mantissa bits split into 3x8: the three terms telescope with no loss
    x = np.float32(np.pi)
    terms = bf16_split(x)
    total = sum(float(t) for t in terms)
    assert np.float32(total) == x


def test_split_residual_bound_on_random_values():
    rng = np.random.default_rng(82)
    exp = rng.uniform(-100, 127, size=2000)
    xs = (np.exp2(exp) * rng.choice([-1.0, 1.0], size=exp.size)).astype(np.float32)
    t1, t2, t3 = _split3(xs)
    total = t1.astype(np.float64) + t2.astype(np.float64) + t3.astype(np.float64)
    resid = np.abs(xs.astype(np.float64) - total)
    assert np.all(resid <= 2.0**-22 * np.abs(xs))


def test_split_function_agrees_with_array_kernel():
    rng = np.random.default_rng(83)
    xs = rng.uniform(-1e6, 1e6, size=64).astype(np.float32)
    t1, t2, t3 = _split3(xs)
    for i, x in enumerate(xs):
        terms = bf16_split(x)
        assert [t.to_float32() for t in terms] == [t1[i], t2[i], t3[i]]


def test_split_argument_errors():
    with pytest.raises(md.ArgumentError):
        bf16_split(np.float32("inf"))
    with pytest.raises(md.ArgumentError):
        bf16_split(1.0, terms=0)


def _patterns(tops, lows):
    """float32 values whose bit patterns are every top half in ``tops`` with every low half in ``lows``."""
    bits = (np.asarray(tops, np.uint32)[:, None] << np.uint32(16)) | np.asarray(lows, np.uint32)
    return bits.ravel().view(np.float32)


_BF16_ROUNDING_CASES = {
    # low half exactly 0x8000 is a tie: even top halves stay, odd ones round up
    "ties_to_even": _patterns(np.arange(0x10000), [0x8000]),
    # ±0, the smallest and largest subnormals, and subnormal ties and near-ties
    "subnormals_and_zeros": _patterns(
        [0x0000, 0x0001, 0x0002, 0x007F, 0x8000, 0x8001, 0x807F],
        [0x0000, 0x0001, 0x7FFF, 0x8000, 0x8001, 0xFFFF],
    ),
    # everything from the largest finite bfloat16 up to the float32 limit
    "saturating": _patterns([0x7F7F, 0xFF7F], np.arange(0x10000)),
    # inf and NaN patterns pass their top half through
    "inf_and_nan": _patterns(
        [0x7F80, 0xFF80, 0x7FC0, 0xFFC0, 0x7F81, 0xFFFF, 0x7FFF],
        [0x0000, 0x0001, 0x7FFF, 0x8000, 0xFFFF],
    ),
}


@pytest.mark.parametrize("case", sorted(_BF16_ROUNDING_CASES))
def test_bf16_array_matches_the_16_bit_formula(case):
    values = _BF16_ROUNDING_CASES[case]
    got = bf16_array(values)
    want = bf16_array_reference(values)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint32), want.view(np.uint32))

