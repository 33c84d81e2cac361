"""Objective functions: OF0 rank rules, ETX estimator, MRHOF hysteresis."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import unicast_expectation
from rplsim.objective import (ETX_INITIAL, ETX_SCALE, INFINITE_RANK,
                              MAX_PATH_COST, PARENT_SWITCH_THRESHOLD,
                              etx_update, mrhof_path_cost, mrhof_rank,
                              mrhof_select_parent, of0_rank,
                              of0_select_parent)


class TestOf0Rank:
    def test_root_child(self):
        assert of0_rank(256) == 512

    def test_second_hop(self):
        assert of0_rank(512) == 768

    def test_saturates_at_infinite(self):
        assert of0_rank(INFINITE_RANK - 100) == INFINITE_RANK

    def test_infinite_parent_rejected(self):
        with pytest.raises(ValueError):
            of0_rank(INFINITE_RANK)


class TestOf0Select:
    def test_strict_minimum(self):
        assert of0_select_parent({10: 256, 11: 512}) == 10

    def test_tie_breaks_by_lowest_id(self):
        assert of0_select_parent({11: 512, 10: 512}) == 10

    def test_current_parent_kept_on_tie(self):
        assert of0_select_parent({11: 512, 12: 512}, current=11) == 11

    def test_switch_on_strictly_lower(self):
        assert of0_select_parent({11: 512, 12: 256}, current=11) == 12

    def test_empty_set(self):
        assert of0_select_parent({}) is None

    @settings(max_examples=200, derandomize=True)
    @given(st.dictionaries(st.integers(0, 50), st.integers(256, 60000),
                           min_size=1, max_size=10),
           st.integers(1, 5000))
    def test_choice_invariant_under_common_offset(self, candidates, offset):
        shifted = {nid: rank + offset for nid, rank in candidates.items()}
        assert of0_select_parent(candidates) == of0_select_parent(shifted)


class TestEtxUpdate:
    def test_perfect_link_is_fixed_point(self):
        assert etx_update(128, 1, True) == 128

    def test_three_attempt_success_sample(self):
        assert etx_update(128, 3, True) == 153  # floor((90*128 + 10*384)/100)

    def test_failure_applies_penalty(self):
        assert etx_update(128, 4, False, max_transmissions=4) == \
            (90 * 128 + 10 * 1024) // 100

    def test_floor_at_one(self):
        etx = 129
        for _ in range(50):
            etx = etx_update(etx, 1, True)
        assert etx == 128

    def test_zero_attempts_rejected(self):
        with pytest.raises(ValueError):
            etx_update(ETX_INITIAL, 0, True)

    @settings(max_examples=100, derandomize=True)
    @given(st.integers(128, 2000))
    def test_all_success_drives_estimate_down_to_floor(self, start):
        etx = start
        for _ in range(200):
            previous, etx = etx, etx_update(etx, 1, True)
            assert etx <= previous
        assert etx == 128

    @settings(max_examples=100, derandomize=True)
    @given(st.integers(128, 1024))
    def test_all_failure_drives_estimate_up_to_penalty(self, start):
        etx = start
        for _ in range(300):
            previous, etx = etx, etx_update(etx, 4, False)
            assert etx >= previous
        # floor truncation leaves a small band of fixed points under the
        # penalty value 1024: est is fixed iff 1014 < est <= 1024
        assert 1014 < etx <= 1024

    def test_long_run_matches_enumerated_expectation(self):
        # iid samples from the true attempt process, q = 0.64 per attempt
        rng = random.Random(12345)
        q, max_tx = 0.64, 4
        etx = ETX_INITIAL
        history = []
        for _ in range(5000):
            attempts, success = max_tx, False
            for k in range(1, max_tx + 1):
                if rng.random() < q:
                    attempts, success = k, True
                    break
            etx = etx_update(etx, attempts, success, max_transmissions=max_tx)
            history.append(etx)
        long_run = sum(history[-1000:]) / 1000
        expected = unicast_expectation(q, max_tx)["mean_etx_sample"]
        assert long_run / ETX_SCALE == pytest.approx(
            expected / ETX_SCALE, rel=0.10)


class TestMrhofCost:
    def test_root_plus_perfect_link(self):
        assert mrhof_path_cost(0, 128) == 128

    def test_addition(self):
        assert mrhof_path_cost(256, 192) == 448

    def test_saturation(self):
        assert mrhof_path_cost(MAX_PATH_COST - 10, 128) == MAX_PATH_COST

    def test_saturated_parent_rejected(self):
        with pytest.raises(ValueError):
            mrhof_path_cost(MAX_PATH_COST, 128)

    def test_rank_floor_dominates_cheap_paths(self):
        assert mrhof_rank(256, 128) == 512

    def test_rank_tracks_cost_when_larger(self):
        assert mrhof_rank(256, 280) == 560

    def test_rank_strictly_above_parent(self):
        for parent_rank in (256, 512, 1000):
            for cost in (128, 256, 4000):
                assert mrhof_rank(parent_rank, cost) > parent_rank


class TestMrhofSelect:
    def test_minimum_without_current(self):
        assert mrhof_select_parent({10: 256, 11: 384}) == 10

    def test_hysteresis_holds(self):
        assert mrhof_select_parent({10: 256, 11: 128}, current=10) == 10

    def test_hysteresis_exceeded(self):
        assert mrhof_select_parent({10: 400, 11: 180}, current=10) == 11

    def test_boundary_difference_keeps_current(self):
        cost = 400 - PARENT_SWITCH_THRESHOLD
        assert mrhof_select_parent({10: 400, 11: cost}, current=10) == 10

    def test_tie_breaks_by_id(self):
        assert mrhof_select_parent({12: 256, 11: 256}) == 11

    def test_empty_set(self):
        assert mrhof_select_parent({}) is None
