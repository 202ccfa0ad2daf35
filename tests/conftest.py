"""Shared test settings: hypothesis runs derandomized (a fixed example
sequence per test) and without per-example deadlines, so the suite gives
the same verdict on every run and on slow or shared machines."""

from hypothesis import settings

settings.register_profile("pnhybrid", derandomize=True, deadline=None, database=None)
settings.load_profile("pnhybrid")
