"""End-to-end benchmark of the repro CLI workloads.

Usage, from the root of a checkout::

    python3 e2ebench/run.py --workload reproduce --seed 1999 --seconds 30 --trace 0

Workloads: ``reproduce``, ``serve-10k``, ``whatif-10k`` (see README.md).
The workload runs in a fresh interpreter with one process and one thread,
a fixed hash seed and a private dataset cache that is removed afterwards.
The last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` the per-layer ones, and the spans are
written to ``.e2ebench/trace-<workload>-seed<seed>.json``.  CPU steal
and load average around the run go to standard error as a diagnostic.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".e2ebench"

#: Child timeout: a run must end well within the three-minute limit.
CHILD_TIMEOUT_S = 150.0

#: Extra interpreters that only time the imports; with the workload's
#: own, setup_s uses the median of 1 + IMPORT_PROBES import times.
IMPORT_PROBES = 2

#: Thread pools of the numeric libraries, pinned to one thread.
_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

#: Program settings that would change the work done; removed.
_UNSET_VARS = (
    "REPRO_ROUTING_JOBS",
    "REPRO_FAULT_PLAN",
    "REPRO_BUILD_TIMEOUT",
    "REPRO_CACHE_DIR",
)


def benchmark_spec() -> dict:
    """BENCHMARK.json: the workloads and the metrics with their units."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def host_load() -> dict[str, float]:
    """CPU steal ticks and the 1-minute load average, from /proc."""
    out: dict[str, float] = {}
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        out["steal_ticks"] = float(fields[8]) if len(fields) > 8 else 0.0
        out["total_ticks"] = float(sum(int(f) for f in fields[1:]))
        with open("/proc/loadavg", encoding="ascii") as fh:
            out["loadavg_1m"] = float(fh.read().split()[0])
    except (OSError, ValueError, IndexError):
        pass
    return out


def child_env(workdir: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in _UNSET_VARS}
    for var in _THREAD_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["REPRO_BUILD_JOBS"] = "1"
    env["REPRO_CACHE_DIR"] = str(workdir / "cache")
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    return env


def _spawn(cmd: list[str], workdir: Path) -> int:
    """Run one child interpreter to its end; its exit code."""
    spawned = time.monotonic()
    proc = subprocess.run(
        cmd + ["--spawned", repr(spawned)],
        cwd=ROOT,
        env=child_env(workdir),
        stdout=subprocess.DEVNULL,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        print(f"workload exited with {proc.returncode}", file=sys.stderr)
    return proc.returncode


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    spec = benchmark_spec()
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in spec["workloads"]]
    )
    parser.add_argument("--seed", type=int, default=1999)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    cmd = [
        sys.executable,
        "-m",
        "e2ebench.workloads",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--workdir", str(workdir),
    ]
    if args.trace:
        cmd += ["--trace-out", str(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json")]
    load_before = host_load()
    try:
        import_samples = []
        for _ in range(IMPORT_PROBES):
            if _spawn(cmd + ["--imports-only"], workdir) != 0:
                return 1
            import_samples.append(
                json.loads((workdir / "imports.json").read_text(encoding="utf-8"))
            )
        if _spawn(cmd, workdir) != 0:
            return 1
        result = json.loads((workdir / "result.json").read_text(encoding="utf-8"))
    except subprocess.TimeoutExpired:
        print(f"workload ran past {CHILD_TIMEOUT_S:g} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    load_after = host_load()
    import_samples.append(result["import_s"])
    result["end_to_end"]["setup_s"] += statistics.median(import_samples)

    diag = {
        "rounds": result["rounds"],
        "import_samples_s": import_samples,
        "setup_samples_s": result["setup_samples_s"],
        "run_samples_s": result["run_samples_s"],
        "phase_samples_s": result["phase_samples_s"],
    }
    if "total_ticks" in load_before and "total_ticks" in load_after:
        ticks = load_after["total_ticks"] - load_before["total_ticks"]
        steal = load_after["steal_ticks"] - load_before["steal_ticks"]
        diag["cpu_steal_share"] = steal / ticks if ticks > 0 else 0.0
        diag["loadavg_1m"] = load_after["loadavg_1m"]
    print(json.dumps({"diagnostics": diag}), file=sys.stderr)
    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)

    kind = "per_layer" if args.trace else "end_to_end"
    values = result[kind]
    units = {m["name"]: m["unit"] for m in spec[kind]}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
