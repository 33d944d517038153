"""Tensor files, sample-point files, and synthetic input generators.

A tensor on disk is a raw little-endian binary of interleaved (re, im)
pairs in row-major order, described by a JSON sidecar at ``<path>.json``
holding dims, dtype, and layout. Inspectable with xxd/numpy directly.
"""

import json
import os

import numpy as np

from .ctensor import ComplexTensor
from .errors import ArgumentError, DimensionError
from .vandermonde import SamplePoints

LAYOUT = "row_major_interleaved_re_im"
_DTYPES = {"float32": "<f4", "float64": "<f8"}


def sidecar_path(path):
    return str(path) + ".json"


def write_tensor(path, tensor):
    """Write the binary payload and its JSON sidecar."""
    if not isinstance(tensor, ComplexTensor):
        raise ArgumentError("write_tensor expects a ComplexTensor")
    name = tensor.dtype.name
    if name not in _DTYPES:
        raise ArgumentError(f"unsupported dtype {name}")
    interleaved = np.stack([tensor.re, tensor.im], axis=-1)
    interleaved.astype(_DTYPES[name]).tofile(path)
    header = {
        "schema_version": 1,
        "dims": [int(n) for n in tensor.shape],
        "dtype": name,
        "layout": LAYOUT,
    }
    with open(sidecar_path(path), "w") as fh:
        json.dump(header, fh, indent=2)
        fh.write("\n")


def read_tensor(path):
    """Read a tensor written by :func:`write_tensor`."""
    try:
        with open(sidecar_path(path)) as fh:
            header = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ArgumentError(f"malformed sidecar for {path}: {exc}") from exc
    if not isinstance(header, dict):
        raise ArgumentError(f"sidecar for {path} is not a JSON object")
    for key in ("dims", "dtype", "layout"):
        if key not in header:
            raise ArgumentError(f"sidecar for {path} missing field {key!r}")
    if header["layout"] != LAYOUT:
        raise ArgumentError(f"unsupported layout {header['layout']!r}")
    dtype = header["dtype"]
    if dtype not in _DTYPES:
        raise ArgumentError(f"unsupported dtype {dtype!r} in sidecar")
    dims = header["dims"]
    if not isinstance(dims, list) or not all(isinstance(n, int) for n in dims):
        raise ArgumentError(
            f"sidecar for {path}: dims must be a list of ints, got {dims!r}"
        )
    count = 2 * int(np.prod(dims))
    raw = np.fromfile(path, dtype=_DTYPES[dtype])
    if raw.size != count:
        raise DimensionError(
            f"{path}: expected {count} scalars for dims {dims}, found {raw.size}"
        )
    raw = raw.astype(dtype).reshape(dims + [2])
    return ComplexTensor(raw[..., 0], raw[..., 1])


def read_points_file(path):
    """Load per-dimension sample points from JSON: {"dims": [[[re, im], ...], ...]}."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ArgumentError(f"malformed points file {path}: {exc}") from exc
    if not isinstance(data, dict) or not isinstance(data.get("dims"), list):
        raise ArgumentError(f"{path}: expected an object with a 'dims' list")
    out = []
    for d, entries in enumerate(data["dims"]):
        try:
            pts = np.array([complex(p[0], p[1]) for p in entries])
        except (TypeError, IndexError) as exc:
            raise ArgumentError(f"{path}: dim {d} entries must be [re, im] pairs") from exc
        out.append(SamplePoints.explicit(pts))
    if not out:
        raise ArgumentError(f"{path}: no dimensions given")
    return out


# -- synthetic inputs --------------------------------------------------------


def gen_delta(extents):
    re = np.zeros(extents, dtype=np.float64)
    re[(0,) * len(extents)] = 1.0
    return ComplexTensor(re, np.zeros(extents, dtype=np.float64))


def gen_constant(extents, value=1.0):
    value = complex(value)
    return ComplexTensor(
        np.full(extents, value.real, dtype=np.float64),
        np.full(extents, value.imag, dtype=np.float64),
    )


def gen_tone(extents, freqs):
    """Separable complex exponential: product over dims of exp(2j*pi*f*n/N)."""
    freqs = list(freqs)
    if len(freqs) != len(extents):
        raise ArgumentError(f"need one frequency per dimension, got {freqs}")
    value = np.ones((), dtype=np.complex128)
    for d, (n, f) in enumerate(zip(extents, freqs)):
        axis_vals = np.exp(2j * np.pi * int(f) * np.arange(n) / n)
        shape = [1] * len(extents)
        shape[d] = n
        value = value * axis_vals.reshape(shape)
    value = np.broadcast_to(value, extents)
    return ComplexTensor(value.real.copy(), value.imag.copy())


def gen_random(extents, seed):
    rng = np.random.default_rng(seed)
    re = rng.uniform(-1.0, 1.0, size=extents)
    im = rng.uniform(-1.0, 1.0, size=extents)
    return ComplexTensor(re, im)


def make_input(spec, extents, seed=0):
    """Build an input tensor from a generator spec like ``random`` or ``tone:3``.

    Specs: ``delta``; ``constant[:value]``; ``tone:f1[,f2,f3]``; ``random``
    (uses ``seed``).
    """
    name, _, arg = str(spec).partition(":")
    if name == "delta":
        return gen_delta(extents)

    def number(convert, text):
        try:
            return convert(text)
        except ValueError:
            raise ArgumentError(
                f"malformed generator {spec!r}: cannot read {text!r} as {convert.__name__}"
            ) from None

    if name == "constant":
        return gen_constant(extents, number(float, arg) if arg else 1.0)
    if name == "tone":
        if not arg:
            raise ArgumentError("tone generator needs frequencies, e.g. tone:3")
        freqs = [number(int, f) for f in arg.split(",")]
        if len(freqs) == 1:
            freqs = freqs * len(extents)
        return gen_tone(extents, freqs)
    if name == "random":
        if not isinstance(seed, int) or seed < 0:
            raise ArgumentError(f"seed must be a non-negative int, got {seed!r}")
        return gen_random(extents, seed)
    raise ArgumentError(
        f"unknown generator {spec!r}; expected delta, constant, tone:<f>, random"
    )


def remove_tensor(path):
    """Delete a tensor file and its sidecar if present (test/demo cleanup)."""
    for p in (path, sidecar_path(path)):
        if os.path.exists(p):
            os.remove(p)
