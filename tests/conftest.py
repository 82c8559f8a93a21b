import sys
from pathlib import Path

from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# Property tests draw the same examples on every run and have no per-example
# deadline, so Tier-1 neither varies between runs nor flakes on a busy host.
# A test's own @settings still sets its max_examples.
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")
