from hypothesis import settings

# Fixed examples and no time limit, so the suite gives the same verdict on
# every run and on slow machines.
settings.register_profile(
    "derange", derandomize=True, deadline=None, max_examples=30, database=None
)
settings.load_profile("derange")
