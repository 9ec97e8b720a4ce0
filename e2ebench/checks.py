"""Output checks for the end-to-end benchmark, written apart from the program.

Each checker takes plain program outputs and returns a list of problem
strings (empty = the output is correct).  None of them calls the code it
checks: the shortest-path search is a Floyd-Warshall written here, the
valley-free rule is restated from the paper's routing model, and the
service and scenario invariants are recomputed from the raw records.
"""

from __future__ import annotations

import math
import re

import numpy as np

#: Host counts of the paper's Table 1 for the world datasets the
#: reproduce workload builds.  The -NA datasets are the North American
#: subsets of their world dataset; their size follows the seeded
#: geography (the paper's 22 and 20), so they are checked as subsets.
PAPER_TABLE1_HOSTS = {"D2": 33, "N2": 31, "UW1": 36}
NA_SUBSETS = {"D2-NA": "D2", "N2-NA": "N2"}

#: Slack for comparing recomputed float sums with the program's.
_REL_TOL = 1e-9


# -- shortest alternate paths -------------------------------------------------


def loss_to_weight(p: float) -> float:
    """Additive weight of a loss rate: -log(1 - p), +inf for p >= 1."""
    return math.inf if p >= 1.0 else -math.log1p(-p)


def best_alternates(weights: np.ndarray) -> np.ndarray:
    """Cheapest i -> j path that does not use the direct edge (i, j).

    A simple path from i to j that avoids the edge (i, j) leaves i for
    some k != j and then reaches j without returning to i, so its cost is
    ``w[i, k] + d(k, j)`` with ``d`` the all-pairs distance of the graph
    without node i.  ``d`` comes from one Floyd-Warshall per source.

    Args:
        weights: (n, n) non-negative edge weights; +inf where no edge.

    Returns:
        (n, n) alternate costs; +inf where no alternate exists and on the
        diagonal.
    """
    n = len(weights)
    alt = np.full((n, n), np.inf)
    for i in range(n):
        rest = [k for k in range(n) if k != i]
        dist = weights[np.ix_(rest, rest)].copy()
        np.fill_diagonal(dist, 0.0)
        for k in range(n - 1):
            dist = np.minimum(dist, dist[:, k : k + 1] + dist[k : k + 1, :])
        via = weights[i, rest][:, None] + dist
        np.fill_diagonal(via, np.inf)  # first hop straight to j: the direct edge
        alt[i, rest] = via.min(axis=0)
    return alt


def check_alternates(
    hosts: list[str],
    edge_values: dict[tuple[str, str], float],
    found: dict[tuple[str, str], float],
    metric: str,
) -> list[str]:
    """Compare the program's best-alternate values with Floyd-Warshall's.

    Args:
        hosts: Graph hosts.
        edge_values: Mean metric value per measured ordered pair.
        found: The program's best-alternate value per pair (pairs without
            an alternate absent).
        metric: ``"rtt"`` (values add) or ``"loss"`` (1 - prod(1 - p)).
    """
    index = {h: i for i, h in enumerate(hosts)}
    weights = np.full((len(hosts), len(hosts)), np.inf)
    for (a, b), value in edge_values.items():
        weights[index[a], index[b]] = (
            loss_to_weight(value) if metric == "loss" else value
        )
    alt = best_alternates(weights)
    problems = []
    for (a, b) in sorted(edge_values):
        expected = alt[index[a], index[b]]
        if metric == "loss" and math.isfinite(expected):
            expected = -math.expm1(-expected)
        got = found.get((a, b))
        if got is None:
            if math.isfinite(expected):
                problems.append(f"{metric} {a}->{b}: alternate {expected:.6g} missed")
            continue
        if not math.isclose(got, expected, rel_tol=1e-7, abs_tol=1e-9):
            problems.append(
                f"{metric} {a}->{b}: program says {got:.9g}, "
                f"Floyd-Warshall says {expected:.9g}"
            )
    return problems


# -- AS paths -----------------------------------------------------------------

_INVERSE = {
    "customer": "provider",
    "provider": "customer",
    "peer": "peer",
    "sibling": "sibling",
}


def relationship_map(as_links) -> dict[tuple[int, int], str]:
    """``(a, b) -> role of b seen from a`` for every adjacency, both ways."""
    rel: dict[tuple[int, int], str] = {}
    for link in as_links:
        rel[(link.a, link.b)] = link.rel_ab.value
        rel[(link.b, link.a)] = _INVERSE[link.rel_ab.value]
    return rel


def check_as_path(as_path: tuple[int, ...], rel: dict[tuple[int, int], str]) -> str | None:
    """Why ``as_path`` breaks the valley-free rule, or None if it keeps it.

    A valid path climbs customer -> provider links, crosses at most one
    peer link, then only descends provider -> customer links.  Sibling
    links are transparent.  No AS may appear twice.
    """
    if len(set(as_path)) != len(as_path):
        return f"loop in {as_path}"
    descending = False
    for a, b in zip(as_path, as_path[1:]):
        role = rel.get((a, b))
        if role is None:
            return f"AS{a}-AS{b} are not adjacent in {as_path}"
        if role == "sibling":
            continue
        if role == "provider":
            if descending:
                return f"valley at AS{a}->AS{b} in {as_path}"
        elif role == "peer":
            if descending:
                return f"peer link after the top at AS{a}->AS{b} in {as_path}"
            descending = True
        else:
            descending = True
    return None


def check_path_info(path_info, rel: dict[tuple[int, int], str]) -> list[str]:
    """Every default AS path of a dataset is loop-free and valley-free."""
    problems = []
    for pair in sorted(path_info):
        why = check_as_path(tuple(path_info[pair].as_path), rel)
        if why is not None:
            problems.append(f"{pair[0]}->{pair[1]}: {why}")
    return problems


# -- tables and figures ---------------------------------------------------------


def check_host_counts(hosts_by_dataset: dict[str, list[str]]) -> dict[str, list[str]]:
    """Per dataset: host count against Table 1 (or subset of its world set)."""
    problems: dict[str, list[str]] = {}
    for name, hosts in hosts_by_dataset.items():
        out = []
        if name in PAPER_TABLE1_HOSTS and len(hosts) != PAPER_TABLE1_HOSTS[name]:
            out.append(f"{len(hosts)} hosts, Table 1 has {PAPER_TABLE1_HOSTS[name]}")
        if name in NA_SUBSETS:
            world = set(hosts_by_dataset.get(NA_SUBSETS[name], ()))
            if not hosts or not set(hosts) <= world:
                out.append(f"not a nonempty subset of {NA_SUBSETS[name]}'s hosts")
        problems[name] = out
    return problems


def check_shares_table(rows: tuple[tuple[object, ...], ...]) -> list[str]:
    """Each dataset column of a t-test table sums to 100% (to rounding)."""
    if not rows:
        return ["table has no rows"]
    problems = []
    for col in range(1, len(rows[0])):
        shares = [float(str(row[col]).rstrip("%")) for row in rows]
        if any(s < 0.0 or s > 100.0 for s in shares):
            problems.append(f"column {col}: share outside [0, 100]: {shares}")
        # Each printed share is rounded to a whole percent.
        if abs(sum(shares) - 100.0) > 0.5 * len(shares) + 1e-9:
            problems.append(f"column {col}: shares sum to {sum(shares)}%")
    return problems


def check_cdf(x: np.ndarray, y: np.ndarray, label: str) -> list[str]:
    """A CDF is sorted in x, non-decreasing in y, and within [0, 1]."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    problems = []
    if len(x) != len(y):
        problems.append(f"{label}: {len(x)} x values, {len(y)} y values")
        return problems
    if len(y) and (np.any(y < 0.0) or np.any(y > 1.0)):
        problems.append(f"{label}: y outside [0, 1]")
    if np.any(np.diff(y) < 0.0):
        problems.append(f"{label}: y decreases")
    if np.any(np.diff(x) < 0.0):
        problems.append(f"{label}: x not sorted")
    return problems


# -- the Detour service -----------------------------------------------------------


def gain_capture(records) -> float:
    """Realized share of the oracle's RTT gain over the default path.

    Over requests where the oracle beats the default path; NaN when it
    never does.
    """
    oracle_gain = 0.0
    realized_gain = 0.0
    for r in records:
        if r.failed or math.isnan(r.direct_rtt_ms) or math.isnan(r.oracle_rtt_ms):
            continue
        if r.oracle_rtt_ms < r.direct_rtt_ms:
            oracle_gain += r.direct_rtt_ms - r.oracle_rtt_ms
            realized_gain += r.direct_rtt_ms - r.rtt_ms
    return realized_gain / oracle_gain if oracle_gain > 0.0 else math.nan


def check_service(results, scores) -> tuple[int, list[str]]:
    """Check every strategy's records of one calm-network service run.

    Args:
        results: ``ServiceResult`` per strategy, in one environment.
        scores: The program's ``StrategyScore`` per result.

    Returns:
        (requests that failed a check, problems).
    """
    problems = []
    bad = 0
    counts = {res.strategy: len(res.records) for res in results}
    if len(set(counts.values())) != 1:
        problems.append(f"strategies served different request counts: {counts}")
        expected = len(results[0].records)
        bad += sum(abs(n - expected) for n in counts.values())
    for res, score in zip(results, scores):
        for r in res.records:
            why = None
            if r.failed:
                why = "failed on a calm network"
            elif not r.oracle_rtt_ms <= r.rtt_ms * (1 + _REL_TOL):
                why = f"oracle {r.oracle_rtt_ms} > chosen {r.rtt_ms}"
            elif not r.oracle_rtt_ms <= r.direct_rtt_ms * (1 + _REL_TOL):
                why = f"oracle {r.oracle_rtt_ms} > direct {r.direct_rtt_ms}"
            if why is not None:
                bad += 1
                if len(problems) < 20:
                    problems.append(f"{res.strategy} t={r.t:.1f} {r.pair}: {why}")
        capture = gain_capture(res.records)
        if not math.isnan(capture):
            if not -_REL_TOL <= capture <= 1.0 + _REL_TOL:
                problems.append(f"{res.strategy}: gain capture {capture} outside [0, 1]")
                bad += len(res.records)
            elif not math.isclose(capture, score.gain_capture, rel_tol=1e-9, abs_tol=1e-12):
                problems.append(
                    f"{res.strategy}: program's gain capture {score.gain_capture} "
                    f"!= recomputed {capture}"
                )
                bad += len(res.records)
    return bad, problems


# -- what-if scenarios --------------------------------------------------------------

_CLAUSE = re.compile(r"at=(?P<at>[0-9.]+)(?::for=(?P<for>[0-9.]+))?")


def spec_edges(spec: str, horizon_s: float) -> list[float]:
    """Segment edges a plan spec implies: 0, each event start/end, horizon."""
    edges = {0.0, float(horizon_s)}
    for clause in spec.split(";"):
        m = _CLAUSE.search(clause)
        if m is None:
            continue
        at = float(m["at"])
        edges.add(at)
        if m["for"] is not None:
            edges.add(at + float(m["for"]))
    return sorted(e for e in edges if e <= horizon_s)


def outage_windows(spec: str) -> list[tuple[float, float]]:
    """[start, end) of every event with a duration in a plan spec."""
    windows = set()
    for clause in spec.split(";"):
        m = _CLAUSE.search(clause)
        if m is not None and m["for"] is not None:
            at = float(m["at"])
            windows.add((at, at + float(m["for"])))
    return sorted(windows)


def check_segments(segments, spec: str, horizon_s: float) -> list[list[str]]:
    """Per segment: partition of [0, horizon) and reachability outside outages."""
    edges = spec_edges(spec, horizon_s)
    got = [(s.start_s, s.end_s) for s in segments]
    want = list(zip(edges, edges[1:]))
    per_segment: list[list[str]] = [[] for _ in segments]
    if got != want:
        for problems in per_segment:
            problems.append(f"segments {got} do not partition [0, {horizon_s}) as {want}")
        return per_segment
    windows = outage_windows(spec)
    for seg, problems in zip(segments, per_segment):
        in_outage = any(a < seg.end_s and seg.start_s < b for a, b in windows)
        if not in_outage and seg.unreachable_pairs:
            problems.append(
                f"[{seg.start_s:g}, {seg.end_s:g}): {len(seg.unreachable_pairs)} "
                "pairs unreachable outside the outage"
            )
    return per_segment


def check_rtt_floor(
    traceroutes, path_info, windows: list[tuple[float, float]]
) -> list[tuple[float, str]]:
    """Outside outages, no RTT sample beats the pristine propagation RTT.

    Returns (time, problem) per offending traceroute.
    """
    problems = []
    for rec in traceroutes:
        if any(a <= rec.t < b for a, b in windows):
            continue
        info = path_info.get((rec.src, rec.dst))
        if info is None:
            continue
        floor = info.prop_delay_ms * (1 - _REL_TOL)
        low = [r for r in rec.rtt_samples if not math.isnan(r) and r < floor]
        if low:
            problems.append(
                (
                    rec.t,
                    f"t={rec.t:.1f} {rec.src}->{rec.dst}: sample {min(low):.3f} ms "
                    f"< propagation {info.prop_delay_ms:.3f} ms",
                )
            )
    return problems


def check_availability(av) -> list[str]:
    """The availability counts nest: disjoint <= any alternate <= measured."""
    problems = []
    chains = [
        ("as_disjoint", av.n_as_disjoint, "with_alternate", av.n_with_alternate),
        ("with_alternate", av.n_with_alternate, "pairs", av.n_pairs),
        ("survive_disjoint_detour", av.n_survive_disjoint_detour,
         "survive_detour", av.n_survive_detour),
        ("survive_detour", av.n_survive_detour, "pairs", av.n_pairs),
        ("survive_bgp", av.n_survive_bgp, "pairs", av.n_pairs),
        ("worst_link_share", av.worst_link_share, "pairs", av.n_pairs),
    ]
    for small_name, small, big_name, big in chains:
        if not 0 <= small <= big:
            problems.append(f"{small_name}={small} not within [0, {big_name}={big}]")
    return problems


def topology_snapshot(topo, pairs: list[tuple[int, int]]) -> tuple:
    """The AS adjacency sequence, and the exchange-link index over ``pairs``."""
    links = tuple(
        (link.a, link.b, link.rel_ab.value, tuple(link.exchange_cities))
        for link in topo.as_links
    )
    exchange = tuple(
        (a, b, tuple(x.link_id for x in topo.exchange_links_between(a, b)))
        for a, b in pairs
    )
    return links, exchange


def check_restored(before: tuple, after: tuple) -> list[str]:
    """The topology after a scenario equals the one before it."""
    problems = []
    if before[0] != after[0]:
        gone = set(before[0]) - set(after[0])
        extra = set(after[0]) - set(before[0])
        problems.append(
            f"as_links changed: {len(gone)} missing, {len(extra)} extra"
            + ("" if gone or extra else " (order differs)")
        )
    if before[1] != after[1]:
        problems.append("exchange-link index changed")
    return problems
