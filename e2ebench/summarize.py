"""Run the benchmark over several seeds and summarize each metric.

Usage, from the root of a checkout::

    python3 e2ebench/summarize.py --seeds 1-10
    python3 e2ebench/summarize.py --seeds 1-3 --workloads serve-10k --trace 1
    python3 e2ebench/summarize.py --load results.json     # re-summarize

For every workload and metric it prints the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and their distance as a
share of the median, and the failed share of all operations.  ``--save``
keeps the raw per-run results as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    """``"1-10"`` or ``"1,5,7"`` -> seeds."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One benchmark run; its result line, or an ``error`` entry."""
    cmd = [
        sys.executable, str(ROOT / "e2ebench" / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"workload": workload, "seed": seed, "error": proc.stderr[-2000:]}
    result = json.loads(lines[-1])
    result.update(workload=workload, seed=seed)
    return result


def summarize(runs: list[dict], bounds: dict[str, float]) -> str:
    """Markdown table: median, quartiles and spread per workload and metric."""
    lines = [
        "| workload | metric | unit | runs | median | Q1 | Q3 | (Q3-Q1)/median | bound |",
        "|---|---|---|---|---|---|---|---|---|",
    ]
    for workload in dict.fromkeys(r["workload"] for r in runs):
        ok = [r for r in runs if r["workload"] == workload and "metrics" in r]
        errors = sum(1 for r in runs if r["workload"] == workload and "error" in r)
        attempted = sum(r["attempted"] for r in ok)
        failed = sum(r["failed"] for r in ok)
        for name in ok[0]["metrics"] if ok else []:
            values = [r["metrics"][name]["value"] for r in ok]
            median = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = median
            spread = (q3 - q1) / median if median else float("nan")
            bound = bounds.get(name)
            lines.append(
                f"| {workload} | {name} | {ok[0]['metrics'][name]['unit']} | "
                f"{len(values)} | {median:.4g} | {q1:.4g} | {q3:.4g} | "
                f"{spread:.3f} | {'' if bound is None else bound} |"
            )
        lines.append(
            f"| {workload} | failed / attempted | ops | {len(ok)} | "
            f"{failed} / {attempted} | | | | |"
        )
        if errors:
            lines.append(f"| {workload} | runs that exited non-zero | | {errors} | | | | | |")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser.add_argument(
        "--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]]
    )
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", type=Path, default=None)
    parser.add_argument("--load", type=Path, default=None)
    args = parser.parse_args(argv)

    if args.load is not None:
        runs = json.loads(args.load.read_text(encoding="utf-8"))
    else:
        runs = []
        for workload in args.workloads:
            for seed in parse_seeds(args.seeds):
                runs.append(run_once(workload, seed, args.seconds, args.trace))
                print(f"{workload} seed {seed} done", file=sys.stderr)
        if args.save is not None:
            args.save.write_text(json.dumps(runs, indent=1), encoding="utf-8")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(summarize(runs, bounds))
    return 0


if __name__ == "__main__":
    sys.exit(main())
