from __future__ import annotations

import hypothesis
import pytest

from qcongest import diameter

hypothesis.settings.register_profile("ci", max_examples=40, deadline=None)
hypothesis.settings.load_profile("ci")


@pytest.fixture(autouse=True)
def _cold_preparation():
    """Start every test without the previous test's graph preparation, so a
    test that patches a preparation phase sees it run."""
    diameter.release_preparation()
