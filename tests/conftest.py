"""Shared test settings: every hypothesis test draws the same examples on
every run, and none is held to a per-example deadline."""

from hypothesis import settings

settings.register_profile("repeatable", derandomize=True, deadline=None)
settings.load_profile("repeatable")
