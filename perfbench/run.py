"""The repository benchmark: one seeded workload per run, closed loop, one client.

    python3 perfbench/run.py --workload backtest --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout; it imports the package from ``src/`` and
writes only under ``.bench_out/``.  With ``--trace 0`` it runs jobs back to
back for ``--seconds`` (always at least the workload's quality jobs) and
reports the end-to-end metrics, times scaled to a reference machine speed by
calibration slices run between the jobs.  With ``--trace 1`` it runs each quality job
once untraced and once with layer spans, alternating which goes first, and
reports the per-layer metrics and the tracing overhead.  The last line of
standard output is the JSON result; the lines before it repeat every metric
with its unit, plus the run manifest.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

NAMES = ("backtest", "order_study", "mse_study", "cli_forecast")
SETUP_REPEATS = 3
# No job starts after this many seconds, so a run ends well within 180 s; a
# run cut before its quality jobs are done reports no error_ratio.
HARD_STOP_S = 120.0
CALIBRATION_ITERATIONS = 50_000
REFERENCE_SLICE_S = 0.25

END_TO_END = (
    ("setup_s", "s"),
    ("throughput_units_per_s", "1/s"),
    ("latency_p50_s", "s"),
    ("peak_rss_mb", "MB"),
    ("error_ratio", "ratio"),
)

SETUP_PROBE = (
    "import sys; sys.path[:0] = ['src', 'perfbench']; import workloads; "
    "workloads.set_up(sys.argv[1], int(sys.argv[2]), sys.argv[3])"
)
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
    "import bayesmar.cli; print(time.perf_counter() - t)"
)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit(root: Path) -> str:
    """HEAD's commit read from ``.git`` directly; "unknown" outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_manifest(root: Path, args: argparse.Namespace, load_at_start: tuple) -> dict:
    import numpy
    import scipy

    src_lines = sum(
        len(p.read_text().splitlines()) for p in sorted((root / "src").rglob("*.py"))
    )
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": list(load_at_start),
        "git_commit": git_commit(root),
        "src_lines": src_lines,
    }


def run_job(wl, seed: int, job: int, tracer=None, span_file: Path | None = None):
    """One public call, timed, then checked; a raise fails every unit of the job."""
    import workloads

    inp = wl.make_input(seed, job)
    start = time.perf_counter()
    try:
        if span_file is not None:
            out = wl.run(inp, span_file=span_file)
        elif tracer is not None:
            with tracer.installed():
                out = wl.run(inp)
        else:
            out = wl.run(inp)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        wall = time.perf_counter() - start
        return workloads.JobResult(wl.units_per_job, wl.units_per_job, notes=["raised"]), wall
    wall = time.perf_counter() - start
    try:
        result = wl.check(inp, out, seed, job)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        result = workloads.JobResult(wl.units_per_job, wl.units_per_job, notes=["check raised"])
    if span_file is not None and tracer is not None and span_file.is_file():
        tracer.merge(span_file)
    return result, wall


def timed_probe(code: str, *argv: str) -> str:
    """Run ``code`` in a fresh interpreter; returns its standard output."""
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, timeout=120
    )
    if proc.returncode != 0:
        raise RuntimeError(f"probe failed: {proc.stderr.strip()[-500:]}")
    return proc.stdout


def quality(wl, results) -> tuple[float, float]:
    """(error_ratio, the workload's named quality figure) over its quality jobs."""
    head = results[: wl.quality_jobs]
    reference = sum(r.reference for r in head)
    scored = sum(r.scored for r in head)
    if len(head) < wl.quality_jobs or reference <= 0.0 or scored == 0:
        return math.nan, math.nan
    return sum(r.error for r in head) / reference, sum(r.score for r in head) / scored


def calibration_slice() -> float:
    """Wall time of a fixed reference computation, in seconds.

    A Python loop of small numpy operations, the instruction mix of the
    sampler's inner loop; it takes REFERENCE_SLICE_S at the reference speed.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    design, target, beta = rng.random((100, 9)), rng.random(100), np.zeros(9)
    start = time.perf_counter()
    for _ in range(CALIBRATION_ITERATIONS):
        float(np.abs(target - design @ beta).sum())
        beta += 1e-6
    return time.perf_counter() - start


def measured_run(wl, args, workdir: Path) -> tuple[dict, list, list[str]]:
    # The speed of a small shared host drifts by 1.5-2x in phases longer than
    # a run.  Calibration slices between the jobs measure the phase, and every
    # time is reported at the reference speed: wall time * speed, with speed
    # REFERENCE_SLICE_S over the mean slice.
    results, walls, slices = [], [], [calibration_slice()]
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if elapsed > HARD_STOP_S or (
            len(results) >= wl.quality_jobs and elapsed + statistics.median(walls) > args.seconds
        ):
            break
        result, wall = run_job(wl, args.seed, len(results))
        results.append(result)
        walls.append(wall)
        slices.append(calibration_slice())
    who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    # Set-up runs in fresh interpreters after the timed jobs, so that the
    # children's memory does not count towards the CLI workload's peak.
    setups = []
    for _ in range(SETUP_REPEATS):
        begin = time.perf_counter()
        timed_probe(SETUP_PROBE, args.workload, str(args.seed), str(workdir))
        setups.append(time.perf_counter() - begin)
    slices.append(calibration_slice())
    speed = REFERENCE_SLICE_S / statistics.fmean(slices)

    units = sum(r.attempted for r in results)
    latencies = [w / r.attempted for w, r in zip(walls, results)]
    ratio, named = quality(wl, results)
    metrics = {
        "setup_s": statistics.median(setups) * speed,
        "throughput_units_per_s": units / (sum(walls) * speed),
        "latency_p50_s": statistics.median(latencies) * speed,
        "peak_rss_mb": peak_rss_mb,
        "error_ratio": ratio,
    }
    failed = sum(r.failed for r in results)
    info = [
        f"jobs {len(results)} ({units} {wl.unit}, {sum(walls):.3f} s timed)",
        f"speed {speed:.4g} x reference over {len(slices)} calibration slices; unscaled "
        f"throughput_units_per_s {units / sum(walls):.6g}, latency_p50_s "
        f"{statistics.median(latencies):.6g}, setup_s {statistics.median(setups):.6g}",
        f"latency_p50_s over {len(latencies)} jobs; no higher percentile has 10 samples beyond it"
        if len(latencies) < 20
        else f"latency_p50_s over {len(latencies)} jobs",
        f"setup_s samples {[round(x * speed, 4) for x in setups]}",
        f"failed_frac {failed / units:.6g} ({failed}/{units})",
        f"{wl.quality_name} {named:.6g} over the first {wl.quality_jobs} jobs",
    ]
    return metrics, results, info


def traced_run(wl, args, workdir: Path) -> tuple[dict, list, list[str]]:
    import tracing

    tracer = tracing.Tracer()
    results = []
    traced_s = untraced_s = 0.0
    for job in range(wl.quality_jobs):
        for traced in ((False, True) if job % 2 == 0 else (True, False)):
            span_file = None
            if traced and not wl.in_process:
                span_file = workdir / f"spans-{job}.json"
            result, wall = run_job(wl, args.seed, job, tracer if traced else None, span_file)
            results.append(result)
            if traced:
                traced_s += wall
            else:
                untraced_s += wall
    imports = [float(timed_probe(IMPORT_PROBE)) for _ in range(SETUP_REPEATS)]
    metrics = tracer.layer_metrics(traced_s, untraced_s, statistics.median(imports))
    out = Path(".bench_out") / f"spans-{args.workload}-{args.seed}.json"
    tracer.dump(out)
    info = [
        f"traced {traced_s:.3f} s, untraced {untraced_s:.3f} s over {wl.quality_jobs} jobs",
        f"spans written to {out}",
    ]
    return metrics, results, info


def main(argv: list[str] | None = None, tiny: bool = False) -> int:
    """Run one benchmark; ``tiny`` shrinks every job to a smoke-check size."""
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "bayesmar" / "__init__.py").is_file():
        print("perfbench: src/bayesmar not found; run from the root of a bayesmar checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    load_at_start = os.getloadavg()
    # Single client on one core: n_jobs=1, and BLAS kept to one thread before
    # numpy loads (children inherit it).  On 2 vCPUs OpenBLAS's own threads
    # made backtest jobs both slower and far less steady.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(root / "src"))
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)

    import tracing
    import workloads

    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        workdir = Path(tmp)
        wl = workloads.make(args.workload, workdir, tiny)
        workloads.warm_up(args.workload, workdir, args.seed)
        if args.trace:
            metrics, results, info = traced_run(wl, args, workdir)
            units = tracing.PER_LAYER
        else:
            metrics, results, info = measured_run(wl, args, workdir)
            units = END_TO_END

    manifest = run_manifest(root, args, load_at_start)
    (out_dir / f"manifest-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(manifest, indent=2) + "\n"
    )
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    for r in results:
        for note in r.notes:
            print(f"check failed: {note}", file=sys.stderr)
    correct = failed == 0 and all(math.isfinite(metrics[name]) for name, _ in units)

    print(f"manifest {json.dumps(manifest, sort_keys=True)}")
    for line in info:
        print(line)
    for name, unit in units:
        print(f"{name} {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name] if math.isfinite(metrics[name]) else None, "unit": unit}
            for name, unit in units
        },
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
