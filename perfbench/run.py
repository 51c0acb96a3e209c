"""qemsim benchmark: one job per fresh process, one caller in a closed loop.

    python3 perfbench/run.py                 # every workload, one after another
    python3 perfbench/run.py --workload h2_sweep --seed 3 --seconds 20 --trace 0

A run starts one child process per job, one after another, until --seconds
have passed (at least one job).  Each child imports qemsim, sets up the
inputs, runs the job once and hands back its outputs, times and peak
memory, so nothing a job builds or caches can carry over to the next.  The
run then checks every output against oracles computed outside the timed
region.  It prints a readable summary and, as the last line of standard
output, one JSON object with the keys correct, attempted, failed and
metrics.  With --trace 0 the metrics are the end-to-end ones, medians over
the run's jobs; with --trace 1 the run alternates untraced and traced
jobs and reports the per-layer figures of the traced ones, whose spans it
writes under perfbench/out/.  The library is imported from src/ of the
checkout this file sits in, and nowhere else.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import pickle
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "qemsim"
NAMES = ("h2_sweep", "h2_vqe_noisy", "ring6_mitigation", "chain10_objective")
BLAS_THREADS = "1"
REFERENCE = HERE / "reference.json"
REFERENCE_SEED = 0
OUT_DIR = HERE / "out"
# Seconds one calibrate() call takes on the machine in perfbench/README.md
# at its usual speed.  Reported times are scaled to that speed.
CALIBRATION_REF_S = 0.08


@dataclass
class Sample:
    """One job process, and the machine speed measured around it."""

    ready_s: float  # process start until the inputs were ready
    job: Any
    spans: list | None
    peak_rss_mb: float
    scale: float = 1.0  # CALIBRATION_REF_S over the calibration time around the job


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=NAMES + ("all",), default="all")
    p.add_argument("--seed", type=int, default=REFERENCE_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--job", action="store_true", help=argparse.SUPPRESS)
    p.add_argument(
        "--record-reference",
        action="store_true",
        help=f"store this run's checked outputs in {REFERENCE.name} (seed {REFERENCE_SEED})",
    )
    return p.parse_args(argv)


def import_library():
    """Import qemsim from this checkout's src/; exit non-zero if it is not there."""
    if not (PACKAGE / "__init__.py").is_file():
        sys.exit(f"qemsim sources not found at {PACKAGE}")
    sys.path.insert(0, str(PACKAGE.parent))
    import qemsim

    if Path(qemsim.__file__).resolve().parent != PACKAGE.resolve():
        sys.exit(f"imported qemsim from {qemsim.__file__}, not from {PACKAGE}")


def spawn_job(name: str, seed: int, traced: bool) -> Sample:
    """Run one job in a fresh child process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--job", "--workload", name,
           "--seed", str(seed), "--trace", str(int(traced))]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        payload = proc.stdout.read()
        code = proc.wait(timeout=170)
    if code != 0 or line.strip() != b"ready":
        sys.exit(f"job process failed (exit {code})")
    return Sample(ready_s, *pickle.loads(payload))


@functools.cache
def _calibration_arrays():
    import numpy as np

    rng = np.random.default_rng(0)
    return [rng.random(shape) + 1j * rng.random(shape)
            for shape in ((16, 16), (256, 256), (1 << 20,))]


def calibrate() -> float:
    """Seconds for a fixed mix of interpreter, small-matrix and memory-bound
    numpy work that does not touch qemsim, a gauge of the machine's speed.

    On the shared machine in perfbench/README.md, other load moved the
    speed of a core by up to 40% over minutes; scaling each job's times by
    this gauge, read in this process just before and after the job, removes
    most of that drift without letting the job's code affect the gauge."""
    small, mid, big = _calibration_arrays()  # interpreter-, BLAS-, memory-bound
    t0 = time.perf_counter()
    for _ in range(3000):
        small @ small
    for _ in range(8):
        mid @ mid
    for _ in range(3):
        big * 0.5
    sum(i * i for i in range(350_000))
    return time.perf_counter() - t0


def peak_rss_mb() -> float:
    """Peak resident memory of this process since it started its program.

    Read from VmHWM, because ru_maxrss would also count the parent's memory
    at the time it started this process."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def job_process(workload, seed: int, trace: int) -> None:
    """Child side of spawn_job: set up, report ready, run one job, hand it back."""
    channel = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)  # anything else written to stdout must not mix with the result
    inputs = workload.setup(seed)
    channel.write(b"ready\n")
    channel.flush()
    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
    job = run_job(workload, inputs, tracer)
    pickle.dump((job, tracer.spans if tracer else None, peak_rss_mb()), channel)
    channel.close()


def run_job(workload, inputs, tracer=None):
    from workloads import OP_ERRORS, Job, OpLog

    log = OpLog()
    t0 = time.perf_counter()
    try:
        if tracer is None:
            result = workload.job(inputs, log, lambda name, fn: fn)
        else:
            with tracer.installed():
                result = workload.job(inputs, log, tracer.wrap)
        error = None
    except OP_ERRORS as exc:
        result, error = None, f"{type(exc).__name__}: {exc}"
    return Job(time.perf_counter() - t0, result, log.ops, error)


def check_jobs(workload, inputs, jobs, seed):
    """Failure messages per attempted op; a raised error is one failed op."""
    from checks import reference_failures

    reference = {}
    if seed == REFERENCE_SEED and REFERENCE.is_file():
        reference = json.loads(REFERENCE.read_text()).get(workload.name, {})
    cache = {}

    def failures(job):
        per_op = workload.check(inputs, job, cache)
        if job.error is not None:
            per_op.append([job.error])
        elif reference:
            ref_bad = reference_failures(workload.values(job), reference)
            if ref_bad and per_op:
                per_op[-1] = per_op[-1] + ref_bad
            elif ref_bad:
                per_op.append(ref_bad)
        return per_op

    per_op = [msgs for job in jobs for msgs in failures(job)]
    # The checks must notice a result moved by 1e-6, or they prove nothing.
    canary = next((j for j in jobs if j.ops and j.error is None), None)
    caught = canary is None or any(failures(workload.perturb(canary)))
    return per_op, caught


def machine() -> str:
    pages = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    import numpy

    return (f"machine: nproc {os.cpu_count()}, RAM {pages / 2**30:.1f} GiB, "
            f"Python {platform.python_version()}, numpy {numpy.__version__}, "
            f"OPENBLAS_NUM_THREADS {os.environ['OPENBLAS_NUM_THREADS']}")


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    # One BLAS thread, inherited by every child process.  On a 2-core shared
    # machine, runs of h2_vqe_noisy interleaved with two-thread runs spread
    # by 17% against 22%, for about 9% of speed.
    os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    # One core for this process, its job processes and the speed gauge, so
    # the gauge reads the core the jobs ran on and no job migrates mid-run.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if args.workload == "all":
        return run_all(args)
    import_library()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    if args.job:
        job_process(workload, args.seed, args.trace)
        return 0

    # Untraced and traced jobs alternate in a traced run, so both see the
    # same stretch of the machine's load.
    samples = {False: [], True: []}  # traced -> [Sample]
    start = time.perf_counter()
    before = calibrate()
    while (not samples[bool(args.trace)]
           or time.perf_counter() - start < args.seconds):
        traced = bool(args.trace) and len(samples[False]) > len(samples[True])
        sample = spawn_job(workload.name, args.seed, traced)
        after = calibrate()
        sample.scale = CALIBRATION_REF_S / ((before + after) / 2)
        samples[traced].append(sample)
        before = after
    measured_s = time.perf_counter() - start

    jobs = [s.job for s in samples[False] + samples[True]]
    inputs = workload.setup(args.seed)
    per_op, caught = check_jobs(workload, inputs, jobs, args.seed)
    attempted = len(per_op)
    failed = sum(1 for msgs in per_op if msgs)
    correct = failed == 0 and caught

    print(f"[{workload.name}] seed {args.seed}, trace {args.trace}: "
          f"{len(jobs)} jobs in {measured_s:.1f} s; {machine()}")
    messages = [msg for msgs in per_op for msg in msgs]
    for msg in messages[:10]:
        print(f"  FAILED: {msg}")
    if len(messages) > 10:
        print(f"  ... and {len(messages) - 10} more failure messages")
    if not caught:
        print("  FAILED: a result moved by 1e-6 passed the checks")

    if args.trace:
        metrics = trace_metrics(workload.name, args.seed, samples)
    else:
        untraced = samples[False]
        raw, scaled = timings(untraced, False), timings(untraced, True)
        metrics = {k: metric(statistics.median(v), "s") for k, v in scaled.items()}
        metrics["peak_rss_mb"] = metric(
            statistics.median(s.peak_rss_mb for s in untraced), "MB"
        )
        for key, m in metrics.items():
            unscaled = f"  (unscaled {statistics.median(raw[key]):.6g})" if key in raw else ""
            print(f"  {key:<16}{m['value']:>12.6g} {m['unit']}{unscaled}")
        print(f"  {'machine_speed':<16}{statistics.median(s.scale for s in untraced):>12.6g}"
              f"   (calibration reference over measured, median)")
        print(f"  {'ops_failed_frac':<16}{failed / attempted:>12.6g}   "
              f"({failed} of {attempted} ops; {len(raw['op_p50_s'])} op times, "
              f"{len(untraced)} jobs, each in its own process)")

    if args.record_reference:
        record_reference(workload, jobs[0], args.seed, correct)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def timings(samples, scaled: bool) -> dict:
    """Set-up, job and op times of the samples, as measured or scaled to the
    reference machine speed."""
    factors = [s.scale if scaled else 1.0 for s in samples]
    wall = [s.job.seconds * f for s, f in zip(samples, factors)]
    ops = [op.seconds * f for s, f in zip(samples, factors) for op in s.job.ops]
    return {
        "setup_s": [s.ready_s * f for s, f in zip(samples, factors)],
        "wall_s": wall,
        # With no op completed, the job time stands in for the op time.
        "op_p50_s": ops or wall,
    }


def trace_metrics(name, seed, samples):
    from spans import layer_metrics, unit_of, write_spans

    traced = [(s.job, s.spans) for s in samples[True]]
    per_job = [layer_metrics(spans) for _, spans in traced]
    keys = per_job[0][0].keys()
    layers = {k: statistics.median(m[k] for m, _ in per_job) for k in keys}
    untraced_s, traced_s = (
        statistics.median(s.job.seconds * s.scale for s in samples[use])
        for use in (False, True)
    )
    layers["trace_overhead_frac"] = traced_s / untraced_s - 1.0

    self_s = per_job[-1][1]
    print(f"  self time by span, last traced job ({traced[-1][0].seconds:.3f} s):")
    for span, t in sorted(self_s.items(), key=lambda kv: -kv[1]):
        print(f"    {span:<28}{t:>10.4f} s {100 * t / traced[-1][0].seconds:>6.1f}%")
    for key, value in layers.items():
        print(f"  {key:<28}{value:>14.6g}")

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{name}-seed{seed}-spans.tsv"
    write_spans(path, [spans for _, spans in traced])
    print(f"  spans written to {path.relative_to(ROOT)}")
    return {k: metric(v, unit_of(k)) for k, v in layers.items()}


def record_reference(workload, job, seed, correct) -> None:
    if seed != REFERENCE_SEED or not correct:
        sys.exit(f"reference needs seed {REFERENCE_SEED} and a run that passes its checks")
    data = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    data[workload.name] = workload.values(job)
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"  reference values stored in {REFERENCE.relative_to(ROOT)}")


def run_all(args) -> int:
    """Each workload in a fresh process, with the same settings."""
    code = 0
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.record_reference:
            cmd.append("--record-reference")
        code = max(code, subprocess.run(cmd, cwd=ROOT).returncode)
    return code


if __name__ == "__main__":
    sys.exit(main())
