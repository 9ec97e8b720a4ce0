"""The benchmark's workloads, run in a fresh interpreter by ``run.py``.

Usage (normally through ``run.py``, which sets the environment)::

    python3 -m e2ebench.workloads --workload serve-10k --seed 1999 \
        --seconds 30 --trace 0 --spawned <monotonic> --workdir DIR

Each run measures whole rounds until the next one would overrun
``--seconds``.  A round runs the workload's timed phases and then checks
their outputs.  Workloads whose environment a round changes stand up a
fresh one before each round; the others reuse one.  Every stand-up is
timed as set-up, topped up to MIN_SETUPS after the last round.  The
result JSON goes to ``DIR/result.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import itertools
import json
import os
import resource
import shutil
import statistics
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.altpath import AlternatePathFinder
from repro.core.graph import Metric, build_graph
from repro.datasets import BuildConfig
from repro.experiments import figures, tables
from repro.experiments.runner import provision_datasets
from repro.scenario import ScenarioPlan, ScenarioRun, analyze_availability
from repro.service import (
    DetourService,
    EvaluationReport,
    score_result,
    strategy_names,
)
from repro.topology.generator import TopologyConfig, build_topology, generate_topology

from e2ebench import checks

_T_IMPORTED = time.monotonic()

#: Set-ups measured per run at least (rounds that did not run one are
#: topped up after the last round).
MIN_SETUPS = 3

#: Scaled-down suite: measurement periods at 5% of the paper's (at 2% and
#: 3% Figure 6 has no pairs to draw).  Artifacts take the per-pair sample
#: minimum `repro reproduce` uses at this scale.
REPRODUCE_SCALE = 0.05
REPRODUCE_MIN_SAMPLES = max(4, int(round(30 * REPRODUCE_SCALE)))

#: Build groups of the reproduce workload and the topology each one's
#: datasets were measured on: (era, seed offset), as in
#: repro.datasets.builders.  The uw3/uw4 groups are left out: their
#: 54-host pool does not fit every seed's topology (see README).
REPRODUCE_GROUPS = {
    "d2": ("1995", 201, ("D2-NA", "D2")),
    "n2": ("1995", 501, ("N2-NA", "N2")),
    "uw1": ("1999", 101, ("UW1",)),
}
REPRODUCE_DATASETS = [n for _, _, names in REPRODUCE_GROUPS.values() for n in names]

#: Figures drawn from UW3 in the paper, redirected to UW1 (the other
#: 1999-era traceroute dataset).  Figure 11 needs UW4 and is left out.
UW1_FIGURES = {"figure7", "figure8", "figure9", "figure10", "figure12",
               "figure13", "figure15", "figure16"}
LEFT_OUT_FIGURES = {"figure11"}

#: The dataset whose best alternates are re-derived by Floyd-Warshall.
FW_DATASET = "UW1"

SERVE_HOSTS = 24
SERVE_PAIRS = 24
#: Simulated hours per round; each round serves about 11.5k requests.
SERVE_HOURS = 2
#: Scoring a round's results takes milliseconds; it is timed as the
#: median of this many passes.
SERVE_SCORE_PASSES = 15

#: Adjacencies the what-if outage should take down.  A region's size on
#: the 10k preset varies twofold between seeds (europe: 1,824 to 3,894
#: adjacencies on seeds 1-5), so the outage is the pair of regions whose
#: adjacencies add up closest to this target on the seed's topology.
WHATIF_TARGET_LINKS = 2500
WHATIF_HOSTS = 8


@dataclass
class Round:
    """What one round measured and found."""

    phases: dict[str, float]
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    #: Operations per second: attempted over the timed phases, or over
    #: the phase that serves them when the workload names one.
    rate_phase: str | None = None

    @property
    def run_s(self) -> float:
        return sum(self.phases.values())

    @property
    def ops_per_s(self) -> float:
        seconds = self.phases[self.rate_phase] if self.rate_phase else self.run_s
        return self.attempted / seconds if seconds > 0 else 0.0


def _timed(fn, *args, **kwargs):
    gc.collect()
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


# -- reproduce ----------------------------------------------------------------


def _artifact_jobs():
    """(name, callable(datasets)) per artifact, with run_all's arguments."""
    min_samples = REPRODUCE_MIN_SAMPLES
    jobs = [
        ("table1", lambda ds: tables.table1(ds)),
        ("table2", lambda ds: tables.table2(ds, min_samples=min_samples)),
        ("table3", lambda ds: tables.table3(ds, min_samples=min_samples)),
    ]
    for name in figures.ALL_FIGURES:
        if name in LEFT_OUT_FIGURES:
            continue
        if name in ("figure4", "figure5"):
            kwargs = {}
        elif name in ("figure9", "figure10"):
            kwargs = {"min_samples": max(3, min_samples // 5)}
        else:
            kwargs = {"min_samples": min_samples}
        if name in UW1_FIGURES:
            kwargs["dataset"] = "UW1"
        jobs.append(
            (name, lambda ds, name=name, kw=kwargs: figures.ALL_FIGURES[name](ds, **kw))
        )
    return jobs


class Reproduce:
    """Build the dataset suite into an empty cache, then every artifact."""

    fresh_env = True

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.jobs = _artifact_jobs()
        self._rel: dict[str, dict] = {}
        self._stand_ups = 0

    def stand_up(self):
        self._stand_ups += 1
        cache = self.workdir / f"cache-{self._stand_ups}"
        cache.mkdir(parents=True)
        os.environ["REPRO_CACHE_DIR"] = str(cache)
        return BuildConfig(seed=self.seed, scale=REPRODUCE_SCALE), cache

    def discard(self, env) -> None:
        shutil.rmtree(env[1], ignore_errors=True)

    def round(self, env) -> Round:
        cfg, _cache = env
        ops = REPRODUCE_DATASETS + [name for name, _ in self.jobs]
        failed: set[str] = set()
        problems: list[str] = []
        try:
            built, build_s = _timed(
                provision_datasets, cfg, jobs=1, only=REPRODUCE_DATASETS
            )
        except Exception:  # the whole round is lost
            return Round({}, len(ops), len(ops), [traceback.format_exc()])
        artifacts, analysis_s = _timed(self._analysis, cfg, failed, problems)
        for name, artifact in artifacts.items():
            for p in self._check_artifact(name, artifact):
                failed.add(name)
                problems.append(f"{name}: {p}")
        for name, ps in self._check_datasets(built).items():
            for p in ps:
                failed.add(name)
                problems.append(f"{name}: {p}")
        return Round(
            {"build_s": build_s, "analysis_s": analysis_s},
            len(ops),
            len(failed),
            problems,
        )

    def _analysis(self, cfg, failed: set, problems: list) -> dict:
        """Load the suite from the cache and regenerate every artifact."""
        with contextlib.redirect_stdout(io.StringIO()):
            datasets = provision_datasets(cfg, jobs=1, only=REPRODUCE_DATASETS)
            out = {}
            for name, job in self.jobs:
                try:
                    out[name] = job(datasets)
                except Exception:
                    failed.add(name)
                    problems.append(f"{name}: {traceback.format_exc(limit=3)}")
        return out

    def _check_artifact(self, name: str, artifact) -> list[str]:
        if name in ("table2", "table3"):
            return checks.check_shares_table(artifact.rows)
        out = []
        for series in getattr(artifact, "series", []):
            out += checks.check_cdf(series.x, series.y, f"{name} {series.label}")
        return out

    def _relationships(self, group: str) -> dict:
        if group not in self._rel:
            era, offset, _ = REPRODUCE_GROUPS[group]
            topo = generate_topology(TopologyConfig.for_era(era, seed=self.seed + offset))
            self._rel[group] = checks.relationship_map(topo.as_links)
        return self._rel[group]

    def _check_datasets(self, built) -> dict[str, list[str]]:
        problems = checks.check_host_counts(
            {name: list(built[name].hosts) for name in REPRODUCE_DATASETS}
        )
        for group, (_, _, names) in REPRODUCE_GROUPS.items():
            rel = self._relationships(group)
            for name in names:
                problems[name] += checks.check_path_info(built[name].path_info, rel)[:20]
        for metric, label in ((Metric.RTT, "rtt"), (Metric.LOSS, "loss")):
            graph = build_graph(
                built[FW_DATASET], metric, min_samples=REPRODUCE_MIN_SAMPLES
            )
            found = {
                pair: alt.value
                for pair, alt in AlternatePathFinder(graph).best_all().items()
            }
            edges = {pair: e.value for pair, e in graph.edges.items()}
            problems[FW_DATASET] += checks.check_alternates(
                list(graph.hosts), edges, found, label
            )[:20]
        return problems


# -- serve-10k ------------------------------------------------------------------


class Serve:
    """All four strategies of a Detour service on the 10k preset, calm network.

    A run reuses one service: :meth:`DetourService.run` replays the same
    environment and schedule each time.
    """

    fresh_env = False

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed

    def stand_up(self):
        return DetourService(
            ScenarioPlan.parse(""),
            seed=self.seed,
            n_hosts=SERVE_HOSTS,
            n_pairs=SERVE_PAIRS,
            duration_s=SERVE_HOURS * 3600.0,
            scale="10k",
        )

    def discard(self, env) -> None:
        pass

    def round(self, service) -> Round:
        names = strategy_names()
        gc.collect()
        start = time.perf_counter()
        results = [service.run(name) for name in names]
        build_s = time.perf_counter() - start
        # One collection for all passes: a full collection over the 10k
        # topology costs more than a pass.
        gc.collect()
        passes = []
        for _ in range(SERVE_SCORE_PASSES):
            start = time.perf_counter()
            scores, _text = self._score(service, results)
            passes.append(time.perf_counter() - start)
        requests = sum(len(r.records) for r in results)
        bad, problems = checks.check_service(results, scores)
        return Round(
            {"build_s": build_s, "analysis_s": statistics.median(passes)},
            requests,
            min(bad, requests),
            problems,
            rate_phase="build_s",
        )

    @staticmethod
    def _score(service, results):
        scores = [score_result(r) for r in results]
        report = EvaluationReport(
            seed=service.seed,
            n_pairs=len(service.pairs),
            horizon_s=service.horizon_s,
            plan_spec=service.plan.to_spec(),
            scores=tuple(scores),
            pairs_down_at_end=results[-1].pairs_down_at_end,
        )
        return scores, report.render()


# -- whatif-10k -----------------------------------------------------------------


def region_sizes(topo) -> Counter:
    """Adjacencies a region outage removes outright, per region.

    An adjacency goes when every one of its exchange links has an
    endpoint in the region.
    """
    sizes: Counter = Counter()
    for link in topo.as_links:
        regions = [
            {topo.routers[x.u].city.region, topo.routers[x.v].city.region}
            for x in topo.exchange_links_between(link.a, link.b)
        ]
        for region in set().union(*regions):
            if all(region in r for r in regions):
                sizes[region] += 1
    return sizes


def whatif_spec(seed: int) -> str:
    """Two region outages from 600 s; the second heals at 1500 s, the first at 1800 s.

    The second region heals first, so the undo of each outage runs on the
    topology it was applied to.
    """
    topo, _ = build_topology("10k", seed=seed)
    sizes = region_sizes(topo)
    first, second = min(
        itertools.permutations(sorted(sizes), 2),
        key=lambda p: (abs(sizes[p[0]] + sizes[p[1]] - WHATIF_TARGET_LINKS), p),
    )
    return (
        f"region-outage:{first}:at=600:for=1200;"
        f"region-outage:{second}:at=600:for=900"
    )


class WhatIf:
    """A two-region outage that heals, on the 10k preset."""

    fresh_env = True

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.spec = whatif_spec(seed)

    def stand_up(self):
        return ScenarioRun(
            ScenarioPlan.parse(self.spec),
            seed=self.seed,
            n_hosts=WHATIF_HOSTS,
            scale="10k",
        )

    def discard(self, env) -> None:
        pass

    def round(self, run) -> Round:
        pairs = [(link.a, link.b) for link in run.topo.as_links]
        before = checks.topology_snapshot(run.topo, pairs)
        (dataset, report), build_s = _timed(run.execute)
        after = checks.topology_snapshot(run.topo, pairs)
        # The availability analysis execute() ends with, timed on its own.
        availability, analysis_s = _timed(analyze_availability, dataset, run.topo)
        segments = report.segments
        seg_problems = checks.check_segments(segments, self.spec, run.horizon_s)
        windows = checks.outage_windows(self.spec)
        floor = checks.check_rtt_floor(dataset.traceroutes, dataset.path_info, windows)
        for t, p in floor:
            for seg, ps in zip(segments, seg_problems):
                if seg.start_s <= t < seg.end_s:
                    ps.append(p)
        av_problems = checks.check_availability(report.availability)
        av_problems += checks.check_restored(before, after)
        if availability != report.availability:
            av_problems.append("availability analysis is not repeatable")
        problems = [p for ps in seg_problems for p in ps] + av_problems
        failed = sum(1 for ps in seg_problems if ps) + (1 if av_problems else 0)
        return Round(
            {"build_s": build_s, "analysis_s": analysis_s},
            len(segments) + 1,
            failed,
            problems,
        )


WORKLOADS = {"reproduce": Reproduce, "serve-10k": Serve, "whatif-10k": WhatIf}


# -- the measurement loop ------------------------------------------------------


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, seconds: float, recorder=None, obs_pair=None) -> dict:
    """Run rounds for ``seconds``; returns the raw samples.

    With a recorder (traced mode), spans and the program's counters are
    taken during stand-ups and timed phases only, not during checks.
    """
    setups: list[float] = []
    rounds: list[Round] = []
    round_walls: list[float] = []
    env = None
    start = time.monotonic()
    while True:
        round_start = time.monotonic()
        if env is None or workload.fresh_env:
            if env is not None:
                workload.discard(env)
                env = None  # freed before the next stand-up, not after it
            with _tracing(recorder, obs_pair):
                env, setup_s = _timed(workload.stand_up)
            setups.append(setup_s)
        with _tracing(recorder, obs_pair):
            rounds.append(workload.round(env))
        round_walls.append(time.monotonic() - round_start)
        elapsed = time.monotonic() - start
        if elapsed + statistics.median(round_walls) > seconds:
            break
    workload.discard(env)
    env = None
    while len(setups) < MIN_SETUPS:
        env, setup_s = _timed(workload.stand_up)
        setups.append(setup_s)
        workload.discard(env)
        env = None
    return {"setups": setups, "rounds": rounds}


@contextlib.contextmanager
def _tracing(recorder, obs_pair):
    """In traced mode, the recorder and the program's obs capture on."""
    if recorder is None:
        yield
        return
    from repro.obs import runtime as obs

    with obs.activate(*obs_pair):
        recorder.active = True
        try:
            yield
        finally:
            recorder.active = False


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--trace-out", type=Path, default=None)
    parser.add_argument(
        "--imports-only", action="store_true",
        help="only time the imports (a set-up sample) and write imports.json",
    )
    args = parser.parse_args(argv)

    import_s = _T_IMPORTED - args.spawned
    if args.imports_only:
        (args.workdir / "imports.json").write_text(json.dumps(import_s), encoding="utf-8")
        return 0
    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    recorder = obs_pair = None
    if args.trace:
        from repro.obs.metrics import Metrics
        from repro.obs.tracer import Tracer

        from e2ebench import tracing

        recorder = tracing.install()
        obs_pair = (Tracer(), Metrics())
    samples = measure(workload, args.seconds, recorder, obs_pair)
    rounds: list[Round] = samples["rounds"]
    phases = {
        key: statistics.median(r.phases.get(key, 0.0) for r in rounds)
        for key in ("build_s", "analysis_s")
    }
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": len(rounds),
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "problems": [p for r in rounds for p in r.problems][:50],
        "import_s": import_s,
        "setup_samples_s": samples["setups"],
        "run_samples_s": [r.run_s for r in rounds],
        "phase_samples_s": [r.phases for r in rounds],
        "end_to_end": {
            # run.py adds the median import time of its probes.
            "setup_s": statistics.median(samples["setups"]),
            "run_s": statistics.median(r.run_s for r in rounds),
            "peak_rss_mb": _peak_rss_mb(),
            "build_s": phases["build_s"],
            "analysis_s": phases["analysis_s"],
            "requests_per_s": statistics.median(r.ops_per_s for r in rounds),
        },
    }
    if recorder is not None:
        layers = tracing.rollup(recorder, obs_pair[1], len(rounds))
        layers["trace.run_s"] = result["end_to_end"]["run_s"]
        result["per_layer"] = layers
        if args.trace_out is not None:
            recorder.dump(
                str(args.trace_out),
                {k: result[k] for k in ("workload", "seed", "rounds")},
                layers,
            )
    with open(args.workdir / "result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
