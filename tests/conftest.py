"""Test-session settings.

Property tests draw fresh examples on every run, so a failure seen once
(in CI, say) may not recur.  The ``trish`` Hypothesis profile prints
the ``@reproduce_failure`` decorator of every failing example, which
replays it exactly; example counts stay as each test sets them.
"""

from hypothesis import settings

settings.register_profile("trish", print_blob=True)
settings.load_profile("trish")
