"""Objective functions: hop-oriented OF0 and ETX-minimizing MRHOF.

Ranks are unsigned 16-bit with a hop increment of 256; link and path ETX
are fixed-point with scale 128 (128 == ETX 1.0).  All arithmetic is
integer with floor truncation so results are identical everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

RANK_UNIT = 256            # MinHopRankIncrease
ROOT_RANK = RANK_UNIT
INFINITE_RANK = 0xFFFF

ETX_SCALE = 128            # fixed point: 128 == ETX 1.0
ETX_INITIAL = 2 * ETX_SCALE
MAX_PATH_COST = 0xFFFF
PARENT_SWITCH_THRESHOLD = 192   # 1.5 ETX of hysteresis
EWMA_OLD_WEIGHT = 90            # percent kept from the previous estimate

OF0 = "of0"
MRHOF_ETX = "etx"


@dataclass
class LinkStats:
    """Per-neighbor ETX estimate fed by unicast attempt outcomes."""
    etx_estimate: int = ETX_INITIAL


def of0_rank(parent_advertised_rank: int) -> int:
    """Rank through a parent under OF0: one hop increment, saturating."""
    if parent_advertised_rank >= INFINITE_RANK:
        raise ValueError("cannot derive a rank from an infinite parent rank")
    return min(parent_advertised_rank + RANK_UNIT, INFINITE_RANK)


def _select_parent(candidates: dict[int, int], current: int | None,
                   threshold: int) -> int | None:
    """Pick the minimum-value candidate, ids breaking ties.

    A current parent still present among the candidates is kept unless the
    best candidate beats it by more than threshold.
    """
    if not candidates:
        return None
    value, best = min(zip(candidates.values(), candidates))
    if current in candidates and value >= candidates[current] - threshold:
        return current
    return best


def of0_select_parent(candidates: dict[int, int],
                      current: int | None = None) -> int | None:
    """Minimum-rank candidate; the current parent yields only to a strictly
    lower rank."""
    return _select_parent(candidates, current, 0)


def etx_update(stats: LinkStats, attempts_used: int, success: bool,
               max_transmissions: int = 4, now: int = 0) -> LinkStats:
    """Fold one unicast outcome into the EWMA link estimate.

    A success samples attempts_used in ETX units; a failure samples a
    penalty of twice the attempt budget so dead links turn expensive fast.
    `now` is unread; it stays because perfbench/hooks.py binds this
    signature.
    """
    if attempts_used < 1:
        raise ValueError("attempts_used must be >= 1")
    if success:
        sample = attempts_used * ETX_SCALE
    else:
        sample = max_transmissions * 2 * ETX_SCALE
    updated = (EWMA_OLD_WEIGHT * stats.etx_estimate
               + (100 - EWMA_OLD_WEIGHT) * sample) // 100
    stats.etx_estimate = max(ETX_SCALE, updated)
    return stats


def mrhof_path_cost(parent_cost: int, link_etx: int) -> int:
    """Additive ETX path cost, saturating at the unreachable sentinel."""
    if parent_cost >= MAX_PATH_COST:
        raise ValueError("cannot extend a saturated path cost")
    return min(parent_cost + link_etx, MAX_PATH_COST)


def mrhof_rank(parent_advertised_rank: int, path_cost: int) -> int:
    """Rank under MRHOF: path cost in rank units, floored at one OF0 hop.

    One ETX (scale 128) maps to one hop increment (256), and the result
    never undercuts parent rank + 256 so rank stays strictly monotone
    along parent chains.
    """
    floor = min(parent_advertised_rank + RANK_UNIT, INFINITE_RANK)
    scaled = min(path_cost * RANK_UNIT // ETX_SCALE, INFINITE_RANK)
    return max(floor, scaled)


def mrhof_select_parent(candidates: dict[int, int],
                        current: int | None = None) -> int | None:
    """Minimum-cost candidate; the current parent yields only to a path
    cheaper by more than the hysteresis threshold."""
    return _select_parent(candidates, current, PARENT_SWITCH_THRESHOLD)
