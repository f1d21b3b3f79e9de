"""Smoke check of the benchmark at tiny sizes; exits non-zero on the first failure.

    python3 perfbench/smoke.py

From the root of a checkout, for every workload it checks that:
- a tiny job passes its output checks, and a deliberately corrupted copy of
  the same output is counted as failed;
- an untraced and a traced tiny run print every metric by name with its unit,
  and end with the JSON result line;
- the benchmark refuses to run, printing no result, in a directory that holds
  only ``BENCHMARK.json`` and ``perfbench/``.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run  # perfbench/run.py; sets nothing up at import

SEED = 3


class SmokeFailure(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise SmokeFailure(message)


def corrupt(name: str, job, output) -> None:
    """Damage one unit of ``output`` in place, the way a broken program might."""
    if name == "backtest":
        output.crps[0, 0, 0] = float("nan")
    elif name == "order_study":
        output.map_orders[0] = job.max_order + 1
    elif name == "mse_study":
        output.estimates["BayesMAR"][0, 0] = float("inf")
    else:
        path = job.out_dir / "forecast.json"
        payload = json.loads(path.read_text())
        first = payload["horizons"][0]
        first["lower"] = first["upper"] + 1.0
        path.write_text(json.dumps(payload))


def check_outputs(workloads, name: str, workdir: Path) -> None:
    wl = workloads.make(name, workdir, tiny=True)
    job = wl.make_input(SEED, 0)
    output = wl.run(job)
    clean = wl.check(job, output, SEED, 0)
    require(clean.failed == 0, f"{name}: clean tiny output failed its checks: {clean.notes}")
    corrupt(name, job, output)
    damaged = wl.check(job, output, SEED, 0)
    require(damaged.failed >= 1, f"{name}: corrupted output was not counted as failed")


def check_report(name: str, trace: int, units) -> None:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = run.main(
            ["--workload", name, "--seed", str(SEED), "--seconds", "0.1", "--trace", str(trace)],
            tiny=True,
        )
    lines = buffer.getvalue().strip().splitlines()
    require(code == 0, f"{name} trace={trace}: exit {code}")
    result = json.loads(lines[-1])
    require(set(result) == {"correct", "attempted", "failed", "metrics"},
            f"{name}: result keys {sorted(result)}")
    require(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
            f"{name} trace={trace}: {lines[-1][:300]}")
    require(set(result["metrics"]) == {n for n, _ in units},
            f"{name} trace={trace}: metric names {sorted(result['metrics'])}")
    for metric, unit in units:
        printed = [ln for ln in lines[:-1] if ln.startswith(f"{metric} ") and ln.endswith(f" {unit}")]
        require(len(printed) == 1, f"{name} trace={trace}: {metric} not printed with unit {unit}")
        require(result["metrics"][metric]["unit"] == unit, f"{name}: {metric} unit mismatch")


def check_refuses_without_program(root: Path, scratch: Path) -> None:
    bare = scratch / "bare"
    shutil.copytree(root / "perfbench", bare / "perfbench")
    shutil.copy(root / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "backtest", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    require(proc.returncode != 0, "benchmark ran without src/")
    require(not proc.stdout.strip(), f"benchmark printed a result without src/: {proc.stdout!r}")


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    import tracing
    import workloads

    (root / ".bench_out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=root / ".bench_out") as tmp:
        scratch = Path(tmp)
        try:
            for name in run.NAMES:
                check_outputs(workloads, name, scratch)
                check_report(name, 0, run.END_TO_END)
                check_report(name, 1, tracing.PER_LAYER)
                print(f"ok {name}")
            check_refuses_without_program(root, scratch)
            print("ok refuses to run without src/")
        except SmokeFailure as exc:
            print(f"FAIL {exc}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
