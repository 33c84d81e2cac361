"""Shared test settings: every hypothesis test draws the same examples on
every run, none is held to a per-example deadline, and the heap is frozen
once the tests are collected, so that the gc.collect() opening each
run_scenario walks only what the tests made since."""

import gc

from hypothesis import settings

settings.register_profile("repeatable", derandomize=True, deadline=None)
settings.load_profile("repeatable")


def pytest_collection_finish(session):
    gc.collect()
    gc.freeze()
