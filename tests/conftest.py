from __future__ import annotations

import hypothesis

hypothesis.settings.register_profile("ci", max_examples=40, deadline=None)
hypothesis.settings.load_profile("ci")
