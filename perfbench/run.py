"""meshdft benchmark: one workload, timed end to end or traced layer by layer.

    python3 perfbench/run.py --workload fft3d-128 --seed 1 --seconds 25 --trace 0

Builds the workload's inputs from ``--seed``, sets up (import, input
generation, plan build, one warm-up op), then runs ops in a closed loop with
one caller for ``--seconds`` seconds, checking every op's output. The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--trace 0`` gives the end-to-end metrics;
``--trace 1`` gives the per-layer metrics from spans recorded around the
package's functions (see ``spans.py``), and writes the spans under
``.perfbench_out/``. The exit code is 0 only when every op passed its checks.
"""

import argparse
import contextlib
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("fft3d-128", "kdft1d-4096", "kdft2d-nu-bf16", "sweep-fft-4096")
SETUPS = 3  # set-up runs per measurement; setup_s is their median
CHILD_TIMEOUT_S = 150


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny runs every workload in about a second (smoke tests)")
    p.add_argument("--perturb-op", type=int, default=-1,
                   help="corrupt the output of op N before its check (smoke tests)")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def locate_package():
    """Put this checkout's ``src`` first on the path; None if meshdft is not there."""
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    spec = importlib.util.find_spec("meshdft")
    if spec is None or not os.path.abspath(spec.origin).startswith(SRC + os.sep):
        return None
    return spec.origin


def cold_setup(args, run_dir):
    """Import the package, build inputs and plan, run one op. Returns the pieces."""
    start = time.perf_counter()
    import meshdft  # noqa: F401  (timed: the import is part of set-up)
    import workloads

    work = workloads.make(args.workload, run_dir, tiny=args.size == "tiny")
    work.setup(args.seed)
    warm = work.op()
    return time.perf_counter() - start, work, warm


def child_setups(args, count):
    """Set-up times of ``count`` fresh processes, each starting cold."""
    times = []
    for i in range(count):
        cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", "0", "--size", args.size]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process {i} failed:\n{proc.stderr}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def tail(times):
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond it). That is nearest rank
    n-10 of n; with ten samples or fewer it is the minimum, the rank with the
    most samples beyond it, which keeps the value continuous in n.
    """
    ordered = sorted(times)
    n = len(ordered)
    index = max(n - 11, 0)
    return ordered[index], 100.0 * (index + 1) / n, n - 1 - index


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_commit():
    """HEAD of the checkout, read from ``.git`` without running git."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError, ValueError):
        blas = {"name": None, "version": None}
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_env": {
            k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
        },
        "cpu": cpu,
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "seed": seed,
    }


class Loop:
    """Runs, times and checks ops; remembers every outcome."""

    def __init__(self, work, perturb_op):
        self.work = work
        self.perturb_op = perturb_op
        self.attempted = 0
        self.failed = 0
        self.outcomes = []
        self.reasons = []
        self.digest = None

    def check(self, output, raised=None):
        if raised is not None:
            from workloads import Outcome

            outcome = Outcome(None, None, {}, False, [raised])
        else:
            outcome = self.work.check(output, perturb=self.attempted == self.perturb_op)
            if self.digest is None:
                self.digest = outcome.digest
            elif outcome.digest != self.digest:
                outcome.ok = False
                outcome.reasons.append("output digest differs from the run's first op")
        self.attempted += 1
        if not outcome.ok:
            self.failed += 1
            self.reasons.append(outcome.reasons)
        self.outcomes.append(outcome)

    def run(self, seconds, around=lambda op: contextlib.nullcontext(), min_ops=1):
        """Ops until ``seconds`` have passed; returns the op times."""
        times = []
        deadline = time.perf_counter() + seconds
        while len(times) < min_ops or time.perf_counter() < deadline:
            output = raised = None
            with around(self.attempted):
                t0 = time.perf_counter()
                try:
                    output = self.work.op()
                except Exception:  # a raising op is a failed op; keep measuring
                    raised = traceback.format_exc(limit=4)
                times.append(time.perf_counter() - t0)
            self.check(output, raised)
        return times

    def errors(self):
        return [o.error for o in self.outcomes if o.error is not None]

    def last_ledger(self):
        return next((o.ledger for o in reversed(self.outcomes) if o.ledger), {})


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(work, loop, times, setups):
    tail_value, tail_pct, beyond = tail(times)
    n = len(times)
    metrics = {
        "op_s_p50": metric(statistics.median(times), "s"),
        "op_s_tail": metric(tail_value, "s"),
        "melem_per_s": metric(work.elements_per_op * n / sum(times) / 1e6, "Melem/s"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mib": metric(peak_rss_mib(), "MiB"),
        "rel_l2_err": metric(max(loop.errors(), default=float("inf")), "ratio"),
        "ok_frac": metric((loop.attempted - loop.failed) / loop.attempted, "ratio"),
    }
    detail = {
        "op_s_tail": {"percentile": tail_pct, "samples": n, "beyond": beyond},
        "setup_samples_s": setups,
        "op_times_s": times,
        "failed_frac": loop.failed / loop.attempted,
    }
    return metrics, detail


LEDGER_UNITS = {
    "permute_count": "count", "all_to_all_count": "count", "bytes_moved": "B",
    "einsum_flops": "flop", "local_fft_flops": "flop",
}


def per_layer(loop, tracer, traced_times, untraced_times, yardstick_s):
    """Per-layer metrics: the plan build's amount plus the mean per traced op."""
    import spans as tr

    self_ns, inc_ns = tr.attribute(tracer.spans)
    n_ops = len(tracer.root_counts) - 1  # every root but the plan build
    totals = Counter()  # (phase, metric name) -> sum over the phase
    op_wall = 0.0
    for sid, name, parent, op, _, start, end in tracer.spans:
        phase = "plan" if op == "plan" else "op"
        if parent is None and phase == "op":
            op_wall += (end - start) / 1e9
        totals[phase, name + "_s"] += inc_ns[sid] / 1e9
        totals[phase, name + "_calls"] += 1
        totals[phase, f"self.{tr.layer_of(name)}_s"] += self_ns[sid] / 1e9
        if name == "mesh.run_spmd":
            totals[phase, "mesh.self_s"] += self_ns[sid] / 1e9
    for op, counts in tracer.root_counts.items():
        for name, count in counts.items():
            totals["plan" if op == "plan" else "op", name] += count

    def value(key):
        return totals["plan", key] + totals["op", key] / n_ops

    m = {name + "_s": metric(value(name + "_s"), "s") for name in tr.SPAN_NAMES}
    m["mesh.self_s"] = metric(value("mesh.self_s"), "s")
    m["ctensor.contract_calls"] = metric(value("ctensor.contract_calls"), "count")
    m["ctensor.tensors_built"] = metric(value("ctensor.tensors_built"), "count")
    ledger = loop.last_ledger()
    for rate, span, flops in (("ctensor.contract_gflop_s", "ctensor.contract_s", "einsum_flops"),
                              ("fft.local_fft_gflop_s", "fft.local_fft_s", "local_fft_flops")):
        seconds = totals["op", span] / n_ops
        m[rate] = metric(ledger.get(flops, 0) / seconds / 1e9 if seconds else 0.0, "GFLOP/s")
    for key, unit in LEDGER_UNITS.items():
        m["mesh." + key] = metric(ledger.get(key, 0), unit)
    m["mesh.steps"] = metric(
        ledger.get("permute_count", 0) + ledger.get("all_to_all_count", 0), "count")
    m["mesh.ledger_matches_closed_form"] = metric(
        int(all(o.ledger_ok for o in loop.outcomes)), "bool")
    for layer in tr.LAYERS + (tr.ROOT_LAYER,):
        m[f"self.{layer}_s"] = metric(value(f"self.{layer}_s"), "s")
    layer_self = sum(totals["op", f"self.{layer}_s"] for layer in tr.LAYERS)
    traced_p50 = statistics.median(traced_times)
    untraced_p50 = statistics.median(untraced_times)
    m["trace.op_s_p50"] = metric(traced_p50, "s")
    m["trace.untraced_op_s_p50"] = metric(untraced_p50, "s")
    m["trace.overhead_s"] = metric(traced_p50 - untraced_p50, "s")
    m["trace.self_cover"] = metric(layer_self / op_wall, "ratio")
    m["reference.numpy_fftn_s"] = metric(yardstick_s, "s")
    return m


def time_yardstick(work, repeats=5):
    run = work.yardstick()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        run()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_setup_only(args):
    run_dir = os.path.join(OUT, f"tmp-{os.getpid()}")
    try:
        setup_s, _, _ = cold_setup(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps({"setup_s": setup_s}))
    return 0


def run_timed(args, run_dir):
    setups = child_setups(args, SETUPS - 1)
    setup_s, work, warm = cold_setup(args, run_dir)
    setups.append(setup_s)
    work.prepare_checks()
    loop = Loop(work, args.perturb_op)
    loop.check(warm)
    del warm
    before, wall = resource.getrusage(resource.RUSAGE_SELF), time.perf_counter()
    times = loop.run(args.seconds)
    after, wall = resource.getrusage(resource.RUSAGE_SELF), time.perf_counter() - wall
    metrics, detail = end_to_end(work, loop, times, setups)
    # how much of the loop's wall time this process got a CPU for, and why not
    detail["loop_rusage"] = {
        "wall_s": wall,
        "cpu_s": (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime),
        "minor_faults": after.ru_minflt - before.ru_minflt,
        "involuntary_switches": after.ru_nivcsw - before.ru_nivcsw,
    }
    return metrics, detail, loop


def run_traced(args, run_dir):
    import spans as tr
    import workloads

    work = workloads.make(args.workload, run_dir, tiny=args.size == "tiny")
    tracer = tr.Tracer()
    with tracer.traced("bench.plan", "plan"):
        work.setup(args.seed)
    work.prepare_checks()
    loop = Loop(work, args.perturb_op)
    loop.check(work.op())
    first = loop.attempted
    # odd ops traced, even ops not: both halves see the same machine state,
    # so their difference is the tracing overhead and not a drift in speed
    times = loop.run(args.seconds, min_ops=2, around=lambda op: (
        tracer.traced("bench.op", op) if op % 2 else contextlib.nullcontext()))
    traced = [t for op, t in enumerate(times, first) if op % 2]
    untraced = [t for op, t in enumerate(times, first) if not op % 2]
    metrics = per_layer(loop, tracer, traced, untraced, time_yardstick(work))
    tr.write_spans(tracer.spans, os.path.join(run_dir, "spans.jsonl"),
                   os.path.join(run_dir, "trace.json"))
    detail = {"spans": len(tracer.spans),
              "span_files": [os.path.relpath(os.path.join(run_dir, f), ROOT)
                             for f in ("spans.jsonl", "trace.json")]}
    return metrics, detail, loop


def main(argv=None):
    args = parse_args(argv)
    if locate_package() is None:
        print(f"error: no meshdft package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.setup_only:
        return run_setup_only(args)
    run_dir = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    runner = run_traced if args.trace else run_timed
    metrics, detail, loop = runner(args, run_dir)
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }
    detail.update({
        "workload": args.workload,
        "size": args.size,
        "digest_sha256": loop.digest,
        "failures": loop.reasons[:5],
        "environment": environment(args.seed),
    })
    with open(os.path.join(run_dir, "result.json"), "w") as fh:
        json.dump({"detail": detail, "result": result}, fh, indent=2)
    print(json.dumps({"detail": {k: v for k, v in detail.items() if k != "op_times_s"}}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
