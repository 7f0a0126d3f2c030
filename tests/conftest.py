import sys
from pathlib import Path

from hypothesis import HealthCheck, settings

sys.path.insert(0, str(Path(__file__).parent))

# "suite" draws the same examples on every run, so a failure reproduces.
# "random" draws fresh ones each run (pytest --hypothesis-profile=random),
# so repeated runs keep exploring; failures print their seed.
settings.register_profile(
    "suite",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.register_profile(
    "random",
    settings.get_profile("suite"),
    derandomize=False,
    max_examples=200,
    print_blob=True,
)
settings.load_profile("suite")
