"""Command-line front end: single transforms and scaling sweeps.

Exit codes: 0 success, 2 validation failure (descriptive message on
stderr), 3 internal protocol error. Reports never include physical
execution details, so identical configurations produce identical bytes
regardless of --workers.
"""

import argparse
import json
import sys
from dataclasses import dataclass, field

from .ctensor import PrecisionMode
from .decomposition import ComputationShape, decompose, gather_to_host
from .errors import ArgumentError, MeshDftError, PlanError, ProtocolError
from .fft import create_fft_plan, fft_forward
from .kdft import create_kdft_plan, kdft_forward
from .mesh import MeshSim
from .oracle import direct_dft, relative_l2_error
from .reports import (
    oracle_feasible,
    per_core,
    scaling_rows,
    transform_report,
    write_scaling_csv,
    write_scaling_json,
)
from .tensorio import make_input, read_points_file, read_tensor, write_tensor
from .vandermonde import SamplePoints


@dataclass
class RunConfig:
    """One validated transform invocation."""

    algorithm: str
    extents: tuple
    shape: ComputationShape
    precision: PrecisionMode
    sampling: str = "uniform"
    points_file: str = None
    input_path: str = None
    generator: str = None
    seed: int = 0
    output_path: str = None
    report_path: str = None
    workers: int = 1
    samples: tuple = field(default=None, repr=False)

    def input_desc(self):
        if self.input_path is not None:
            return {"kind": "file", "path": self.input_path}
        return {"kind": "generator", "spec": self.generator, "seed": self.seed}


def parse_dims(text):
    try:
        extents = tuple(int(n) for n in str(text).lower().split("x"))
    except ValueError:
        raise ArgumentError(f"cannot parse dims {text!r}") from None
    if not 1 <= len(extents) <= 3 or any(n < 1 for n in extents):
        raise ArgumentError(f"dims must be 1..3 positive extents, got {text!r}")
    return extents


def _resolve_samples(config):
    if config.sampling == "uniform":
        return tuple(SamplePoints.uniform(n) for n in config.extents)
    if config.algorithm == "fft":
        raise ArgumentError(
            "the fft engine requires uniform sampling; use kdft for nonuniform points"
        )
    if not config.points_file:
        raise ArgumentError("nonuniform sampling requires --points-file")
    samples = read_points_file(config.points_file)
    if len(samples) != len(config.extents):
        raise ArgumentError(
            f"points file has {len(samples)} dims, transform has {len(config.extents)}"
        )
    for d, (s, n) in enumerate(zip(samples, config.extents)):
        if len(s) != n:
            raise ArgumentError(f"dim {d}: {len(s)} points for extent {n}")
    return tuple(samples)


def _load_input(config):
    if config.input_path is not None:
        tensor = read_tensor(config.input_path)
        if tensor.shape != config.extents:
            raise ArgumentError(
                f"input file dims {tensor.shape} do not match --dims {config.extents}"
            )
        return tensor
    return make_input(config.generator, config.extents, config.seed)


def run_transform(config, shared=None):
    """Execute one configured transform; returns (global result, report dict).

    ``shared`` maps extents to what a scaling sweep's points with those
    extents share: the sample points, the input tensor and the oracle
    result, all made from the same sampling, points file, generator and seed
    as ``config``. A miss is built and stored in it. A sweep passes one dict
    for the whole sweep, so points with the same dims build each once.

    Raises ``PlanError`` if the host cannot allocate the run's arrays, and
    ``ProtocolError`` if the measured ledger differs from the closed form in
    ``reports.expected_ledger``.
    """
    entry = {} if shared is None else shared.setdefault(config.extents, {})
    try:
        if "tensor" not in entry:
            entry["samples"] = _resolve_samples(config)
            entry["tensor"] = _load_input(config)
        config.samples, tensor = entry["samples"], entry["tensor"]
        mesh = MeshSim(config.shape)
        if config.algorithm == "kdft":
            plan = create_kdft_plan(config.shape, config.samples, config.precision)
        else:
            plan = create_fft_plan(config.shape, config.extents, config.precision)
        blocks, assignment = decompose(tensor, config.shape)
        forward = kdft_forward if config.algorithm == "kdft" else fft_forward
        result = gather_to_host(forward(mesh, plan, blocks, workers=config.workers), assignment)

        oracle_error = oracle_max = None
        if oracle_feasible(config.extents):
            ref = entry.get("oracle")
            if ref is None:
                # looked up at call time, so a wrapper set on this module sees every call
                ref = entry["oracle"] = direct_dft(tensor, config.samples)
            oracle_error = relative_l2_error(result, ref.values)
            oracle_max = ref.max_abs
    except MemoryError as exc:
        dims = "x".join(map(str, config.extents))
        raise PlanError(f"dims {dims} on grid {_shape_str(config.shape)} in "
                        f"{config.precision.value} do not fit in memory: {exc}") from None

    report = transform_report(
        config.algorithm,
        config.extents,
        config.shape,
        config.precision,
        config.sampling,
        config.input_desc(),
        mesh,
        oracle_error,
        oracle_max,
    )
    if report["ledger"] != report["expected"]:
        raise ProtocolError(
            f"ledger {report['ledger']} differs from the closed form "
            f"{report['expected']}"
        )
    return result, report


def _shape_str(shape):
    return "x".join(str(p) for p in shape.dims)


def cmd_transform(args):
    config = RunConfig(
        algorithm=args.algo,
        extents=parse_dims(args.dims),
        shape=ComputationShape.parse(args.shape),
        precision=PrecisionMode.parse(args.precision),
        sampling=args.sampling,
        points_file=args.points_file,
        input_path=args.input,
        generator=args.gen,
        seed=args.seed,
        output_path=args.output,
        report_path=args.report,
        workers=args.workers,
    )
    result, report = run_transform(config)
    if config.output_path:
        write_tensor(config.output_path, result)
    if config.report_path:
        with open(config.report_path, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    ledger = report["ledger"]
    line = (
        f"{config.algorithm} dims={args.dims} shape={_shape_str(config.shape)} "
        f"cores={config.shape.num_cores}: "
        f"permute_count={ledger['permute_count']} "
        f"all_to_all_count={ledger['all_to_all_count']} "
        f"bytes_moved={ledger['bytes_moved']} "
        f"einsum_flops={ledger['einsum_flops']} "
        f"local_fft_flops={ledger['local_fft_flops']}"
    )
    if report["oracle"] is not None:
        line += f" rel_l2_err={report['oracle']['relative_l2_error']:.3e}"
    print(line)
    return 0


def cmd_scaling(args):
    algo = args.algo
    sweep = [s for s in args.sweep.split(",") if s]
    if not sweep:
        raise ArgumentError("--sweep must list at least one point")
    precision = PrecisionMode.parse(args.precision)
    strong = args.mode == "strong"
    extents_of = [parse_dims(args.dims if strong else point) for point in sweep]
    # every input to a point but the extents and the grid is fixed for the whole sweep;
    # what points with the same extents share is kept until the last of them
    last_use = {extents: i for i, extents in enumerate(extents_of)}
    shared = {}
    results = []
    any_ok = False
    for i, (point, extents) in enumerate(zip(sweep, extents_of)):
        shape_text = point if strong else args.shape
        row = {
            "dims": "x".join(str(n) for n in extents),
            "shape": shape_text,
            "num_cores": "",
            "status": "ok",
            "einsum_flops_per_core": "",
            "local_fft_flops_per_core": "",
            "permute_count": "",
            "all_to_all_count": "",
            "bytes_moved": "",
            "max_rel_error_vs_oracle": "",
        }
        try:
            shape = ComputationShape.parse(shape_text)
            config = RunConfig(
                algorithm=algo,
                extents=extents,
                shape=shape,
                precision=precision,
                sampling=args.sampling,
                points_file=args.points_file,
                generator=args.gen,
                seed=args.seed,
                workers=args.workers,
            )
            _, report = run_transform(config, shared)
        except ProtocolError:
            raise
        except MeshDftError as exc:
            row["status"] = f"skipped: {exc}"
            results.append(row)
            continue
        finally:
            if last_use[extents] == i:
                shared.pop(extents, None)
        ledger = report["ledger"]
        num = report["num_cores"]
        row["num_cores"] = num
        row["einsum_flops_per_core"] = per_core(ledger["einsum_flops"], num)
        row["local_fft_flops_per_core"] = per_core(ledger["local_fft_flops"], num)
        row["permute_count"] = ledger["permute_count"]
        row["all_to_all_count"] = ledger["all_to_all_count"]
        row["bytes_moved"] = ledger["bytes_moved"]
        expected = report["expected"]
        row["expected_work"] = (
            per_core(expected["einsum_flops"], num)
            if algo == "kdft"
            else per_core(expected["local_fft_flops"], num)
        )
        if report["oracle"] is not None:
            row["max_rel_error_vs_oracle"] = report["oracle"]["relative_l2_error"]
        any_ok = True
        results.append(row)

    rows = scaling_rows(results, algo)
    for row in rows:
        if "expected_work" not in row:
            row["expected_work"] = ""
        print(
            f"{algo} dims={row['dims']} shape={row['shape']}: {row['status']}"
            + (
                f" cores={row['num_cores']}"
                f" einsum_flops_per_core={row['einsum_flops_per_core']}"
                f" local_fft_flops_per_core={row['local_fft_flops_per_core']}"
                f" ideal_work={row['ideal_work']}"
                if row["status"] == "ok"
                else ""
            )
        )
    if not any_ok:
        print("error: every sweep point failed validation", file=sys.stderr)
        return 2
    if args.report:
        base = {
            "dims": args.dims,
            # a strong sweep ignores --shape; its report has always said "1"
            "shape": "1" if args.shape is None else args.shape,
            "precision": precision.value,
            "sampling": args.sampling,
            "generator": args.gen,
            "seed": args.seed,
        }
        write_scaling_csv(args.report + ".csv", rows)
        write_scaling_json(args.report + ".json", algo, args.mode, base, rows)
        print(f"wrote {args.report}.csv and {args.report}.json")
    return 0


def _add_common(parser, needs_dims):
    parser.add_argument("--algo", choices=("kdft", "fft"), required=True)
    parser.add_argument("--dims", required=needs_dims, default=None,
                        help="extents like 64 or 8x8x8")
    parser.add_argument("--shape", default="1", help="core grid like 4 or 2x2x2")
    parser.add_argument("--precision", default="f64",
                        help="f64, f32, or bf16split3")
    parser.add_argument("--sampling", choices=("uniform", "nonuniform"),
                        default="uniform")
    parser.add_argument("--points-file", default=None,
                        help="JSON sample points (nonuniform kdft only)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=1,
                        help="simulator threads; never changes results")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="meshdft",
        description="Parallel DFT engines on a simulated core mesh",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    t = sub.add_parser("transform", help="run one transform")
    _add_common(t, needs_dims=True)
    src = t.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", default=None, help="input tensor file")
    src.add_argument("--gen", default=None,
                     help="synthetic input: delta, constant[:v], tone:f, random")
    t.add_argument("--output", default=None, help="output tensor file")
    t.add_argument("--report", default=None, help="JSON ledger report path")

    s = sub.add_parser("scaling", help="strong/weak scaling sweep")
    _add_common(s, needs_dims=False)
    # no default: a weak sweep without --shape must fail, not run on 1 core
    s.set_defaults(shape=None)
    s.add_argument("--mode", choices=("strong", "weak"), required=True)
    s.add_argument("--sweep", required=True,
                   help="comma list: shapes (strong) or dims (weak)")
    s.add_argument("--gen", default="random",
                   help="synthetic input for every sweep point")
    s.add_argument("--report", default=None,
                   help="report base path; writes <base>.csv and <base>.json")
    return parser


# parse_args leaves its parser as it was, so one parser serves every call
_PARSER = build_parser()


def main(argv=None):
    args = _PARSER.parse_args(argv)
    try:
        if args.command == "transform":
            return cmd_transform(args)
        if args.command == "scaling":
            if args.mode == "strong" and not args.dims:
                raise ArgumentError("strong scaling requires --dims")
            if args.mode == "weak" and args.shape is None:
                raise ArgumentError("weak scaling requires --shape")
            return cmd_scaling(args)
        raise ArgumentError(f"unknown command {args.command!r}")
    except ProtocolError as exc:
        print(f"protocol error: {exc}", file=sys.stderr)
        return 3
    except (MeshDftError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
