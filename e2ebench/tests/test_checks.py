"""The benchmark's checkers accept real program output and reject corruptions.

Run from the repository root::

    PYTHONPATH=src:. python -m pytest e2ebench/tests -q

Everything runs on the paper-scale (1999-era) topology and a scaled-down
dataset, in well under a minute.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import time

import numpy as np
import pytest

from repro.core.altpath import AlternatePathFinder
from repro.core.graph import Metric, build_graph
from repro.datasets import BuildConfig
from repro.datasets.builders import build_group
from repro.scenario import ScenarioPlan, ScenarioRun
from repro.service import DetourService, score_result, strategy_names
from repro.topology.generator import TopologyConfig, generate_topology

from e2ebench import checks, tracing

SEED = 1999


@pytest.fixture(scope="module")
def uw1():
    """UW1 at 5% scale and the topology it was measured on."""
    dataset = build_group("uw1", BuildConfig(seed=SEED, scale=0.05))["UW1"]
    topo = generate_topology(TopologyConfig.for_era("1999", seed=SEED + 101))
    return dataset, topo


@pytest.fixture(scope="module")
def service_results():
    service = DetourService(
        ScenarioPlan.parse(""), seed=SEED, n_hosts=8, n_pairs=4, duration_s=3600.0
    )
    results = [service.run(name) for name in strategy_names()]
    return results, [score_result(r) for r in results]


@pytest.fixture(scope="module")
def whatif():
    spec = "region-outage:na-west:at=300:for=600"
    run = ScenarioRun(ScenarioPlan.parse(spec), seed=SEED, n_hosts=8)
    pairs = [(link.a, link.b) for link in run.topo.as_links]
    before = checks.topology_snapshot(run.topo, pairs)
    dataset, report = run.execute()
    return spec, run, pairs, before, dataset, report


# -- Floyd-Warshall alternates ----------------------------------------------------


def _brute_force_alternates(weights: np.ndarray) -> np.ndarray:
    """Every simple path, enumerated: the slow reference for small graphs."""
    n = len(weights)
    alt = np.full((n, n), np.inf)
    for i, j in itertools.permutations(range(n), 2):
        others = [k for k in range(n) if k not in (i, j)]
        for r in range(1, len(others) + 1):
            for middle in itertools.permutations(others, r):
                path = (i, *middle, j)
                cost = sum(weights[a, b] for a, b in zip(path, path[1:]))
                alt[i, j] = min(alt[i, j], cost)
    return alt


def test_floyd_warshall_matches_path_enumeration():
    rng = np.random.default_rng(3)
    for _ in range(20):
        w = rng.uniform(1.0, 50.0, size=(5, 5))
        w[rng.random((5, 5)) < 0.35] = np.inf
        np.fill_diagonal(w, np.inf)
        np.testing.assert_allclose(
            checks.best_alternates(w), _brute_force_alternates(w)
        )


@pytest.mark.parametrize("metric,label", [(Metric.RTT, "rtt"), (Metric.LOSS, "loss")])
def test_alternates_accept_real_output_and_reject_off_by_one(uw1, metric, label):
    dataset, _ = uw1
    graph = build_graph(dataset, metric, min_samples=4)
    found = {p: a.value for p, a in AlternatePathFinder(graph).best_all().items()}
    edges = {p: e.value for p, e in graph.edges.items()}
    assert len(found) > 100
    assert checks.check_alternates(list(graph.hosts), edges, found, label) == []

    pair = sorted(found)[len(found) // 2]
    bumped = dict(found)
    bumped[pair] += 1.0 if label == "rtt" else 0.01
    problems = checks.check_alternates(list(graph.hosts), edges, bumped, label)
    assert len(problems) == 1 and f"{pair[0]}->{pair[1]}" in problems[0]

    missing = dict(found)
    del missing[pair]
    assert checks.check_alternates(list(graph.hosts), edges, missing, label)


# -- valley-free AS paths ------------------------------------------------------------


def test_default_paths_are_valley_free(uw1):
    dataset, topo = uw1
    rel = checks.relationship_map(topo.as_links)
    assert len(dataset.path_info) > 100
    assert checks.check_path_info(dataset.path_info, rel) == []


def test_valley_loop_and_gap_are_rejected(uw1):
    _, topo = uw1
    rel = checks.relationship_map(topo.as_links)
    # a -> b descends to a customer, b -> c climbs to another provider.
    a, b, c = next(
        (a, b, c)
        for (a, b), role in sorted(rel.items())
        if role == "customer"
        for (b2, c), role2 in sorted(rel.items())
        if b2 == b and role2 == "provider" and c != a
    )
    assert "valley" in checks.check_as_path((a, b, c), rel)
    assert "loop" in checks.check_as_path((a, b, a), rel)
    assert checks.check_as_path((b, a), rel) is None
    assert "not adjacent" in checks.check_as_path((a, -1), rel)

    dataset, _ = uw1
    pair = sorted(dataset.path_info)[0]
    info = dataset.path_info[pair]
    corrupted = {pair: dataclasses.replace(info, as_path=(a, b, c))}
    assert checks.check_path_info(corrupted, rel)


# -- tables, figures, host counts ---------------------------------------------------


def test_table_shares_and_cdfs():
    good = (("Better", "20%", "33%"), ("Indeterminate", "41%", "33%"), ("Worse", "39%", "33%"))
    assert checks.check_shares_table(good) == []
    bad = (("Better", "20%", "43%"), ("Indeterminate", "41%", "33%"), ("Worse", "39%", "33%"))
    assert checks.check_shares_table(bad)

    x = np.array([0.0, 1.0, 2.0])
    assert checks.check_cdf(x, np.array([0.2, 0.6, 1.0]), "ok") == []
    assert checks.check_cdf(x, np.array([0.2, 0.1, 1.0]), "down")
    assert checks.check_cdf(x, np.array([0.2, 0.6, 1.2]), "above one")
    assert checks.check_cdf(x[::-1], np.array([0.2, 0.6, 1.0]), "unsorted")


def test_host_counts():
    world = [f"h{i}" for i in range(33)]
    assert checks.check_host_counts({"D2": world, "D2-NA": world[:24]}) == {
        "D2": [],
        "D2-NA": [],
    }
    problems = checks.check_host_counts({"D2": world[:32], "D2-NA": ["elsewhere"]})
    assert problems["D2"] and problems["D2-NA"]


# -- the Detour service --------------------------------------------------------------


def test_service_records_pass(service_results):
    results, scores = service_results
    assert all(len(r.records) > 50 for r in results)
    assert checks.check_service(results, scores) == (0, [])


def test_dropped_request_is_rejected(service_results):
    results, scores = service_results
    short = dataclasses.replace(results[1], records=results[1].records[:-1])
    bad, problems = checks.check_service([results[0], short, *results[2:]], scores)
    assert bad >= 1 and "different request counts" in problems[0]


def test_oracle_beaten_or_failed_request_is_rejected(service_results):
    results, scores = service_results
    records = list(results[0].records)
    rec = records[3]
    records[3] = dataclasses.replace(rec, rtt_ms=rec.oracle_rtt_ms - 1.0)
    beaten = dataclasses.replace(results[0], records=tuple(records))
    bad, problems = checks.check_service([beaten, *results[1:]], scores)
    assert bad >= 1 and any("oracle" in p for p in problems)

    records[3] = dataclasses.replace(rec, failed=True)
    failed = dataclasses.replace(results[0], records=tuple(records))
    bad, _ = checks.check_service([failed, *results[1:]], scores)
    assert bad >= 1


def test_gain_capture_matches_program(service_results):
    results, scores = service_results
    for result, score in zip(results, scores):
        ours = checks.gain_capture(result.records)
        assert (math.isnan(ours) and math.isnan(score.gain_capture)) or math.isclose(
            ours, score.gain_capture
        )


# -- what-if scenarios ---------------------------------------------------------------


def test_whatif_outputs_pass(whatif):
    spec, run, pairs, before, dataset, report = whatif
    assert checks.check_restored(before, checks.topology_snapshot(run.topo, pairs)) == []
    per_segment = checks.check_segments(report.segments, spec, run.horizon_s)
    assert [s.start_s for s in report.segments] == [0.0, 300.0, 900.0]
    assert per_segment == [[] for _ in report.segments]
    assert checks.check_availability(report.availability) == []
    windows = checks.outage_windows(spec)
    assert windows == [(300.0, 900.0)]
    assert sum(1 for r in dataset.traceroutes if r.t >= 900.0) > 20
    assert checks.check_rtt_floor(dataset.traceroutes, dataset.path_info, windows) == []


def test_unrestored_adjacency_is_rejected(whatif):
    _, run, pairs, before, _, _ = whatif
    link = run.topo.as_links[len(run.topo.as_links) // 2]
    index = run.topo.remove_as_link(link)
    try:
        problems = checks.check_restored(before, checks.topology_snapshot(run.topo, pairs))
    finally:
        run.topo.insert_as_link(index, link)
    assert problems and "missing" in problems[0]

    a, b = link.a, link.b
    ids = [x.link_id for x in run.topo.exchange_links_between(a, b)]
    position = run.topo.detach_exchange_link(ids[0])
    try:
        problems = checks.check_restored(before, checks.topology_snapshot(run.topo, pairs))
    finally:
        run.topo.reattach_exchange_link(ids[0], position)
    assert problems == ["exchange-link index changed"]


def test_broken_segments_and_counts_are_rejected(whatif):
    spec, run, _, _, dataset, report = whatif
    shifted = list(report.segments)
    shifted[1] = dataclasses.replace(shifted[1], start_s=360.0)
    assert all(checks.check_segments(shifted, spec, run.horizon_s))

    unreachable = list(report.segments)
    unreachable[0] = dataclasses.replace(unreachable[0], unreachable_pairs=(("a", "b"),))
    per_segment = checks.check_segments(unreachable, spec, run.horizon_s)
    assert per_segment[0] and not per_segment[2]

    av = dataclasses.replace(
        report.availability, n_as_disjoint=report.availability.n_with_alternate + 1
    )
    assert checks.check_availability(av)

    rec = next(r for r in dataset.traceroutes if not 300.0 <= r.t < 900.0)
    fast = dataclasses.replace(rec, rtt_samples=(0.001,) + rec.rtt_samples[1:])
    assert checks.check_rtt_floor([fast], dataset.path_info, [(300.0, 900.0)])


# -- traced mode ---------------------------------------------------------------------


def test_self_time_excludes_wrapped_children():
    rec = tracing.SpanRecorder()

    def child():
        time.sleep(0.02)

    wrapped_child = rec.wrap("routing.resolve", child)

    def parent():
        time.sleep(0.01)
        wrapped_child()

    wrapped_parent = rec.wrap("service.loop", parent)
    wrapped_parent()  # inactive: not recorded
    assert rec.calls == {}
    rec.active = True
    wrapped_parent()
    assert rec.calls == {"service.loop": 1, "routing.resolve": 1}
    assert 0.009 < rec.self_s["service.loop"] < 0.018
    assert rec.self_s["routing.resolve"] >= 0.019
    (p_name, p_start, p_end, p_parent), (c_name, c_start, c_end, c_parent) = rec.spans
    assert rec.names[p_name] == "service.loop" and p_parent == -1
    assert rec.names[c_name] == "routing.resolve" and c_parent == 0
    assert p_start <= c_start <= c_end <= p_end
