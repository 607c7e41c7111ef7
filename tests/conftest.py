"""Test-suite configuration.

Hypothesis deadlines are disabled globally: the suite runs on arbitrary
(often single-core, contended) CI machines, and the property tests wrap
whole planner/executor pipelines whose wall time is load-dependent.
Example counts stay per-test; set ``HYPOTHESIS_PROFILE=thorough`` for a
deeper fuzzing pass.
"""

import os

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "thorough",
    deadline=None,
    max_examples=300,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def clean_protocol_sweep():
    """The default model-check sweep of the shipped protocol, run once.

    The sweep takes ~20 s.  The model-checker test asserts on it directly
    and the ``repro analyze --model-check`` CLI test is served the same
    result, so the session explores the protocol exactly once.
    """
    from repro.analysis.protocol import build_protocol_model, check_protocol

    return check_protocol(build_protocol_model())
