#!/usr/bin/env python3
"""End-to-end and per-layer benchmark for latgas.

Run from the repository root:

    python3 bench/run.py --workload transition-scan --seed 1 --seconds 52 --trace 0

One process runs one workload: set-up (repeated, median reported), then
closed-loop passes over the workload's operations: at least one, and more
while the next pass should end within `--seconds`.  Every operation's output is checked.  The report
lists every metric with its unit and every check verdict; the last line of
standard output is one JSON object with `correct`, `attempted`, `failed` and
`metrics` (end-to-end metrics with `--trace 0`, per-layer metrics with
`--trace 1`).  The traced run first runs untraced passes for half the time,
then traced passes, so `trace.overhead` compares the two.  A full record
goes to `.bench_out/<workload>-seed<seed>-trace<trace>/result.json`, and
the traced run's spans to `spans.jsonl` beside it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 3

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("transition-scan", "lattice-and-grid"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def pin_to_one_cpu() -> tuple[int, int]:
    """Bind the process to the last CPU it may use; returns (nproc, that CPU).

    The CLI's pool threads run mostly under the GIL.  Spread over two CPUs,
    every GIL hand-off wakes the other CPU, and a shared host that steals
    either one stalls both threads.  On a 2-vCPU VM a scan took 18-28 s from
    one run to the next on two CPUs, against 17-20 s on one CPU over the
    same minutes.
    """
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})
    return len(cpus), cpus[-1]


def machine_block(nproc: int, cpu: int) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "git_sha": git_sha(),
        "nproc": nproc,
        "pinned_cpu": cpu,
        "os_cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


@dataclass
class Pass:
    """Timings and verdicts of one closed-loop pass over the operations."""

    wall: float = 0.0
    cpu: float = 0.0
    op_wall: dict = field(default_factory=dict)
    verdicts: list = field(default_factory=list)
    failed_ops: list = field(default_factory=list)
    op_dirs: dict = field(default_factory=dict)
    spans: tuple = (0, 0)      # slice of the tracer's span list


def run_pass(ops, out: Path, tracer) -> Pass:
    from workloads import Verdict

    p = Pass()
    n0 = len(tracer.spans)
    c0, t0 = time.process_time(), time.perf_counter()
    for op in ops:
        op_dir = out / op.name
        p.op_dirs[op.name] = op_dir
        o0 = time.perf_counter()
        try:
            with tracer.span(f"op.{op.name}", cli=op.is_cli):
                verdicts = op.run(op_dir)
        except Exception as exc:  # noqa: BLE001 - an operation failure is counted, not fatal
            verdicts = [Verdict(f"{op.name}.raised", False, f"{type(exc).__name__}: {exc}")]
        p.op_wall[op.name] = time.perf_counter() - o0
        p.verdicts += verdicts
        if not all(v.ok for v in verdicts):
            p.failed_ops.append(op.name)
    p.wall = time.perf_counter() - t0
    p.cpu = time.process_time() - c0
    p.spans = (n0, len(tracer.spans))
    return p


def run_passes(ops, out: Path, tracer, deadline: float, first: int) -> list[Pass]:
    """At least one pass; another only if it should end before the deadline."""
    passes = []
    while True:
        passes.append(run_pass(ops, out / f"pass{first + len(passes)}", tracer))
        longest = max(p.wall for p in passes)
        if time.perf_counter() + longest > deadline:
            return passes


def command_times(passes, ops) -> dict[str, float]:
    """Median over passes of the summed wall time of each command group."""
    groups = dict.fromkeys(op.group for op in ops)
    return {f"{g}_s": median(sum(p.op_wall[op.name] for op in ops if op.group == g)
                             for p in passes)
            for g in groups}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "latgas" / "__init__.py").is_file():
        print(f"bench: no latgas sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("bench: --seconds must be positive", file=sys.stderr)
        return 2
    # BLAS threads and the CPU are pinned before numpy is first imported
    for var in THREAD_VARS:
        os.environ[var] = "1"
    nproc, cpu = pin_to_one_cpu()
    sys.path.insert(0, str(ROOT / "src"))

    import spans
    import workloads

    setup_fn, ops_fn = workloads.WORKLOADS[args.workload]
    out = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    machine = machine_block(nproc, cpu)

    setup_times = []
    setup_verdicts = []
    for k in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        ctx, verdicts = setup_fn(out / f"setup{k}")
        setup_times.append(time.perf_counter() - t0)
        setup_verdicts.append(verdicts)
    ops = ops_fn(ctx, args.seed)

    tracer = spans.Tracer()
    start = time.perf_counter()
    if args.trace:
        plain = run_passes(ops, out, tracer, start + args.seconds / 2, 0)
        tracer.install()
        tracer.active = True
        try:
            traced = run_passes(ops, out, tracer, start + args.seconds, len(plain))
        finally:
            tracer.active = False
            tracer.uninstall()
    else:
        plain = run_passes(ops, out, tracer, start + args.seconds, 0)
        traced = []
    passes = plain + traced

    move_us = None
    if args.trace and any(op.group == "sample" for op in ops):
        t0 = time.perf_counter()
        stats = workloads.move_only_sample(args.seed)
        move_us = 1e6 * (time.perf_counter() - t0) / stats.proposals

    # one set-up counts as one operation, like each timed operation
    attempted = len(setup_verdicts) + len(ops) * len(passes)
    failed = (sum(not all(v.ok for v in vs) for vs in setup_verdicts)
              + sum(len(p.failed_ops) for p in passes))
    checks = [v for vs in setup_verdicts for v in vs] + [v for p in passes for v in p.verdicts]

    e2e = {
        "setup_s": median(setup_times),
        "wall_s": median(p.wall for p in plain),
        "cpu_s": median(p.cpu for p in plain),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    layer, absent = {}, {}
    if traced:
        sets = [spans.SpanSet(tracer.spans[slice(*p.spans)]) for p in traced]
        per_pass = [spans.layer_metrics(ss, move_us) for ss in sets]
        layer = {k: median(m[k] for m in per_pass) for k in per_pass[0]}
        layer["trace.overhead"] = spans.ratio(median(p.wall for p in traced),
                                              e2e["wall_s"])
        called = {s.name for ss in sets for s in ss.spans}
        absent = spans.absent_reasons(tracer, called)
        with open(out / "spans.jsonl", "w") as fh:
            for sp in tracer.spans:
                fh.write(json.dumps(vars(sp), default=str) + "\n")

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine,
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "setup_runs_s": setup_times,
        "pass_wall_s": [p.wall for p in passes],
        "end_to_end": e2e,
        "commands_s": command_times(plain, ops),
        "fail_frac": failed / attempted,
        "per_layer": layer,
        "absent": absent,
        "enumeration_gaps": workloads.enumeration_gaps(passes[-1].op_dirs),
        "checks": [vars(v) for v in checks],
    }
    (out / "result.json").write_text(json.dumps(report, indent=2) + "\n")
    print_report(report, checks)

    metrics = layer if traced else e2e
    units = spans.PER_LAYER if traced else END_TO_END
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }), flush=True)
    return 0


def print_report(report: dict, checks) -> None:
    """Human-readable lines: machine, metrics with units, check verdicts."""
    from spans import PER_LAYER

    print(f"workload {report['workload']} seed {report['seed']} "
          f"passes {report['passes']}")
    for key, val in report["machine"].items():
        print(f"machine {key} = {val}")
    for name, val in report["end_to_end"].items():
        print(f"end_to_end {name} = {val:.6g} {END_TO_END[name]}")
    print(f"end_to_end fail_frac = {report['fail_frac']:.6g} ratio")
    for name, val in report["commands_s"].items():
        print(f"command {name} = {val:.6g} s")
    for name, val in report["per_layer"].items():
        print(f"per_layer {name} = {val:.6g} {PER_LAYER[name]}")
    for name, why in report["absent"].items():
        print(f"absent {name}: {why}")
    for name, val in report["enumeration_gaps"].items():
        print(f"diagnostic enumeration {name} = {val:.4f}")
    seen = set()
    for v in checks:
        if v.ok and v.name in seen:
            continue
        seen.add(v.name)
        print(f"check {'PASS' if v.ok else 'FAIL'} {v.name}: {v.detail}")


if __name__ == "__main__":
    sys.exit(main())
