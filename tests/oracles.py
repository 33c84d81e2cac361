"""Independent reference computations used to check simulator output.

Everything here is deliberately written against first principles (graph
search, enumeration, summation over trace records) rather than reusing the
simulator's own code paths.
"""

from __future__ import annotations

import heapq
import math
from collections import defaultdict, deque

from rplsim.telemetry import TRACE_FIELDS

ETX_SCALE = 128
US_PER_S = 1_000_000


def disk_edges(positions: dict[int, tuple[float, float]],
               tx_range: float) -> dict[int, list[int]]:
    ids = sorted(positions)
    adj = {nid: [] for nid in ids}
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            if math.dist(positions[a], positions[b]) <= tx_range:
                adj[a].append(b)
                adj[b].append(a)
    return adj


def bfs_hops(positions: dict[int, tuple[float, float]], tx_range: float,
             source: int = 0) -> dict[int, int]:
    """Hop distance from the source over the closed unit-disk graph."""
    adj = disk_edges(positions, tx_range)
    dist = {source: 0}
    frontier = deque([source])
    while frontier:
        a = frontier.popleft()
        for b in adj[a]:
            if b not in dist:
                dist[b] = dist[a] + 1
                frontier.append(b)
    return dist


def dijkstra_etx(positions: dict[int, tuple[float, float]], tx_range: float,
                 link_p: dict[tuple[int, int], float],
                 default_p: float = 1.0, source: int = 0) -> dict[int, float]:
    """Minimum expected-transmission cost from the source.

    Edge weight is 1/p^2: data and acknowledgment each succeed with the
    link's reception probability, so one delivery costs 1/p^2 expected
    transmissions.  Costs are in ETX units (1.0 == one perfect hop).
    """
    adj = disk_edges(positions, tx_range)
    dist = {source: 0.0}
    heap = [(0.0, source)]
    done = set()
    while heap:
        d, a = heapq.heappop(heap)
        if a in done:
            continue
        done.add(a)
        for b in adj[a]:
            p = link_p.get((min(a, b), max(a, b)), default_p)
            if p <= 0.0:
                continue
            nd = d + 1.0 / (p * p)
            if nd < dist.get(b, math.inf):
                dist[b] = nd
                heapq.heappush(heap, (nd, b))
    return dist


def unicast_expectation(per_attempt_success: float,
                        max_attempts: int) -> dict[str, float]:
    """Closed-form law of an acknowledged unicast with bounded retries.

    Enumerates success-at-attempt-k events plus the all-failed event and
    returns the success probability, the unconditional mean of attempts
    used, and the mean ETX sample (attempts on success, 2 * max_attempts
    penalty on failure) in scale-128 fixed point.
    """
    q = per_attempt_success
    mean_attempts = 0.0
    mean_sample = 0.0
    p_success = 0.0
    prefix_fail = 1.0
    for k in range(1, max_attempts + 1):
        p_k = prefix_fail * q
        p_success += p_k
        mean_attempts += k * p_k
        mean_sample += k * ETX_SCALE * p_k
        prefix_fail *= 1.0 - q
    mean_attempts += max_attempts * prefix_fail
    mean_sample += 2 * max_attempts * ETX_SCALE * prefix_fail
    return {
        "p_success": p_success,
        "mean_attempts": mean_attempts,
        "mean_etx_sample": mean_sample,
    }


def record_dict(record: tuple) -> dict:
    """A trace record tuple as the JSON object its line should hold."""
    return dict(zip(TRACE_FIELDS[record[1]], record, strict=True))


# a record tuple starts (t, ev, node); tx and rx records carry their bytes here
_BYTES = {ev: list(TRACE_FIELDS[ev]).index("bytes") for ev in ("tx", "rx")}


def replay_energy(records: list[tuple], bitrate_bps: int,
                  cpu_process_us: int) -> dict[int, dict[str, int]]:
    """Recompute per-node radio and CPU time from a trace, independently.

    Airtimes are re-derived from frame byte counts and the bitrate; CPU
    time follows the documented rule: active during every own tx/rx window
    plus one fixed processing cost per send / fwd / deliver record.
    """
    acc: dict[int, dict[str, int]] = defaultdict(
        lambda: {"tx_us": 0, "rx_us": 0, "cpu_us": 0})
    for rec in records:
        ev, node = rec[1], rec[2]
        if ev in _BYTES:
            dur = round(rec[_BYTES[ev]] * 8 * US_PER_S / bitrate_bps)
            acc[node][f"{ev}_us"] += dur
            acc[node]["cpu_us"] += dur
        elif ev in ("send", "fwd", "deliver"):
            acc[node]["cpu_us"] += cpu_process_us
    return acc


def check_packets(result) -> list[str]:
    """Per-packet conservation, read from the run's trace.

    Each sent pid has at most one fate (a deliver or a drop); each fwd and
    each fate comes after the pid's send, and no fwd after its fate; the
    pids with no fate are exactly the packets the run left in a node's queue
    or in a MAC data job whose data no receiver got.  Returns the problems.
    """
    sent, fated, problems = set(), {}, []
    for rec in result.trace.records:
        ev = rec[1]
        if ev not in ("send", "fwd", "deliver", "drop"):
            continue
        pid = rec[3]
        if ev == "send":
            if pid in sent:
                problems.append(f"{pid}: sent twice")
            sent.add(pid)
        elif pid not in sent:
            problems.append(f"{pid}: {ev} at {rec[0]} before its send")
        elif pid in fated:
            problems.append(f"{pid}: {ev} at {rec[0]} after its {fated[pid]}")
        elif ev != "fwd":
            fated[pid] = ev
    held = set()
    for nid, node in result.nodes.items():
        held.update(packet.pid for packet in node.queue)
        radio = node.medium.radios[nid]
        for job in (radio.current, *radio.queue):
            if (job is not None and job.frame.kind.label == "data"
                    and not job.data_delivered):
                held.add(job.frame.payload.pid)
    unfated = sent - fated.keys()
    for pid in sorted(unfated - held):
        problems.append(f"{pid}: no fate, and no queue or job holds it")
    for pid in sorted(held - unfated):
        problems.append(f"{pid}: held at the end, but not an unfated send")
    return problems
