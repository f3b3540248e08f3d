"""Hypothesis profiles. ``--hypothesis-profile=ci`` derandomizes every
property, so a failure seen in CI replays locally with the same command."""
from hypothesis import settings

settings.register_profile("ci", derandomize=True)
