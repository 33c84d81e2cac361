"""Independent reference computations used to check simulator output.

Everything here is deliberately written against first principles (graph
search, enumeration, summation over trace records) rather than reusing the
simulator's own code paths.  Each run oracle in ORACLES takes a finished,
traced RunResult and returns its problems; check_run applies them all.
"""

from __future__ import annotations

import heapq
import math
from collections import defaultdict, deque

from rplsim.engine import to_us
from rplsim.objective import MRHOF_ETX
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


def airtime_by_kind(medium) -> dict[str, int]:
    """Each frame kind's airtime (us) under a MediumConfig: DIO and DIS
    frames take the control size, data and ACK frames their own."""
    size = {"dio": medium.control_frame_bytes,
            "dis": medium.control_frame_bytes,
            "data": medium.data_frame_bytes, "ack": medium.ack_frame_bytes}
    return {kind: round(n * 8 * US_PER_S / medium.bitrate_bps)
            for kind, n in size.items()}


def replay_energy(records: list[tuple], medium,
                  cpu_process_us: int) -> dict[int, dict[str, int]]:
    """Recompute per-node radio and CPU time from a trace, independently.

    Airtimes are re-derived from each frame's kind, its size under the
    run's MediumConfig and the bitrate, an rx taking its kind from its
    frame's tx; CPU time follows the documented rule: active during every
    own tx/rx window plus one fixed processing cost per send / fwd /
    deliver record.
    """
    acc: dict[int, dict[str, int]] = defaultdict(
        lambda: {"tx_us": 0, "rx_us": 0, "cpu_us": 0})
    airtime, kind = airtime_by_kind(medium), {}   # kind by frame id, from tx
    for rec in records:
        ev, node = rec[1], rec[2]
        if ev == "tx":
            kind[rec[4]] = rec[3]
        if ev in ("tx", "rx"):  # either record ends with its frame id
            dur = airtime[kind[rec[-1]]]
            acc[node][f"{ev}_us"] += dur
            acc[node]["cpu_us"] += dur
        elif ev in ("send", "fwd", "deliver"):
            acc[node]["cpu_us"] += cpu_process_us
    return acc


def check_frames(result) -> list[str]:
    """Each frame's facts, held in its tx records only.

    Every tx of one frame (a retried unicast airs its frame again) has the
    same node and kind; every rx at time t ends an airing of its frame at
    exactly t: the frame's latest tx t plus the airtime of its kind under
    the run's MediumConfig.
    """
    airtime, problems = airtime_by_kind(result.config.medium), []
    aired, latest = {}, {}      # (node, kind) and the latest tx t, by frame
    for rec in result.trace.records:
        if rec[1] == "tx":
            facts, frame = rec[2:4], rec[4]
            first = aired.setdefault(frame, facts)
            latest[frame] = rec[0]
            if facts != first:
                problems.append(f"frame {frame}: tx at {rec[0]} has "
                                f"{facts}, an earlier tx {first}")
        elif rec[1] == "rx":
            frame = rec[3]
            if frame not in aired:
                problems.append(f"frame {frame}: rx at {rec[0]} by node "
                                f"{rec[2]} before any tx")
            elif (end := latest[frame] + airtime[aired[frame][1]]) != rec[0]:
                problems.append(f"frame {frame}: rx at {rec[0]} by node "
                                f"{rec[2]}, but its latest airing ends at "
                                f"{end}")
    return problems


def deliveries(records: list[tuple]) -> dict[str, tuple[int, int]]:
    """Each delivered packet's (hops, latency us), derived from the trace:
    one hop per fwd record plus the last one into the sink, and the time
    from its send to its deliver."""
    sent_at, fwds, out = {}, defaultdict(int), {}
    for t, ev, _, pid, *_ in records:     # a pid in packet records only
        if ev == "send":
            sent_at[pid] = t
        elif ev == "fwd":
            fwds[pid] += 1
        elif ev == "deliver" and pid in sent_at:  # else check_packets says so
            out[pid] = (fwds[pid] + 1, t - sent_at[pid])
    return out


def held_packets(result) -> set:
    """The pids of the packets a run ends with in a node's queue or in a
    MAC data job whose data no receiver got."""
    held = set()
    for nid, node in result.nodes.items():
        held.update(packet.pid for packet in node.queue)
        radio = node.medium.radios[nid]
        for job in (radio.current, *radio.queue):
            if (job is not None and job.frame.kind.label == "data"
                    and not job.data_delivered):
                held.add(job.frame.payload.pid)
    return held


def check_packets(result) -> list[str]:
    """Per-packet conservation, read from the run's trace.

    Each send comes after the run's warmup, and each sent pid has at most
    one fate (a deliver or a drop); each fwd and each fate comes after the
    pid's send, and no fwd after its fate; the pids with no fate are exactly
    held_packets; the delivered packets' hops and latencies, derived from
    the trace, sum to the metrics' totals.
    """
    sent, fated, problems = set(), {}, []
    warmup = to_us(result.config.warmup_s)
    for rec in result.trace.records:
        ev = rec[1]
        if ev not in ("send", "fwd", "deliver", "drop"):
            continue
        pid = rec[3]
        if ev == "send":
            if rec[0] <= warmup:
                problems.append(f"{pid}: sent at {rec[0]}, not after the "
                                f"warmup {warmup}")
            if pid in sent:
                problems.append(f"{pid}: sent twice")
            sent.add(pid)
        elif pid not in sent:
            problems.append(f"{pid}: {ev} at {rec[0]} before its send")
        elif pid in fated:
            problems.append(f"{pid}: {ev} at {rec[0]} after its {fated[pid]}")
        elif ev != "fwd":
            fated[pid] = ev
    held, unfated = held_packets(result), sent - fated.keys()
    for pid in sorted(unfated - held):
        problems.append(f"{pid}: no fate, and no queue or job holds it")
    for pid in sorted(held - unfated):
        problems.append(f"{pid}: held at the end, but not an unfated send")
    paths, m = deliveries(result.trace.records).values(), result.metrics
    derived = (sum(h for h, _ in paths), sum(lat for _, lat in paths))
    if derived != (m.hop_total, m.latency_total_us):
        problems.append(f"derived (hops, latency) totals {derived}, metrics "
                        f"{(m.hop_total, m.latency_total_us)}")
    return problems


def check_tree(result) -> list[str]:
    """The run's preferred parents form a tree rooted at the sink, node 0.

    Each joined sensor's parent is joined and among the candidates it
    heard, and its rank exceeds the rank that parent advertised to it; its
    chain of preferred parents, walked here, reaches the sink without
    visiting a node twice.  Under MRHOF the sink's path cost is 0, and a
    sensor's is at least one perfect link's ETX per hop of its chain.
    """
    nodes, problems = result.nodes, []
    mrhof = result.config.objective == MRHOF_ETX
    if nodes[0].role != "sink":
        problems.append(f"node 0 has role {nodes[0].role}")
    if mrhof and nodes[0].path_cost != 0:
        problems.append(f"sink path cost {nodes[0].path_cost}")
    for nid, node in nodes.items():
        if not node.joined or node.role == "sink":
            continue
        parent = nodes[node.preferred_parent]
        if not parent.joined:
            problems.append(f"node {nid} has unjoined parent {parent.id}")
        heard = node.candidates.get(node.preferred_parent)
        if heard is None:
            problems.append(f"node {nid} has parent {parent.id} that it "
                            f"never heard")
        elif node.rank <= heard.rank:
            problems.append(f"node {nid} rank {node.rank} <= parent "
                            f"advertised rank {heard.rank}")
        seen, hop = {nid}, node.preferred_parent
        while hop is not None and nodes[hop].role != "sink":
            if hop in seen:
                problems.append(f"node {nid} parent chain comes back to "
                                f"node {hop}")
                break
            seen.add(hop)
            hop = nodes[hop].preferred_parent
        else:       # seen holds one node per hop of a chain that ended
            floor = ETX_SCALE * len(seen)
            if mrhof and hop is not None and (node.path_cost is None
                                              or node.path_cost < floor):
                problems.append(f"node {nid} path cost {node.path_cost} "
                                f"below {floor}, for {len(seen)} hops")
    return problems


def check_energy(result) -> list[str]:
    """Each node's cpu + lpm time is the run's elapsed time, and its radio
    time (tx + rx) is not longer."""
    problems, elapsed = [], result.elapsed_us
    for nid, ledger in result.ledgers.items():
        if ledger.cpu_us + ledger.lpm_us != elapsed:
            problems.append(f"node {nid}: cpu {ledger.cpu_us} + lpm "
                            f"{ledger.lpm_us} != elapsed {elapsed}")
        if ledger.tx_us + ledger.rx_us > elapsed:
            problems.append(f"node {nid}: radio time "
                            f"{ledger.tx_us + ledger.rx_us} exceeds elapsed "
                            f"{elapsed}")
    return problems


def check_replay(result) -> list[str]:
    """Each node's tx, rx and cpu time, replayed from the trace by
    replay_energy, equal its ledger's."""
    cfg, problems = result.config, []
    replayed = replay_energy(result.trace.records, cfg.medium,
                             to_us(cfg.protocol.cpu_process_s))
    for nid, ledger in result.ledgers.items():
        got = replayed[nid]
        if (got["tx_us"], got["rx_us"], got["cpu_us"]) != \
                (ledger.tx_us, ledger.rx_us, ledger.cpu_us):
            problems.append(f"node {nid}: replay {got}, ledger "
                            f"{(ledger.tx_us, ledger.rx_us, ledger.cpu_us)}")
    return problems


# Every oracle a finished, traced run must pass
ORACLES = (check_packets, check_frames, check_tree, check_energy,
           check_replay)


def check_run(result) -> list[str]:
    """The problems every oracle finds in the run, each led by the name of
    the oracle that found it."""
    return [f"{oracle.__name__}: {problem}" for oracle in ORACLES
            for problem in oracle(result)]
