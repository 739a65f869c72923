from hypothesis import settings

# CI runs `pytest --hypothesis-profile=ci`: the same examples on every run,
# and no per-example deadline on shared runners. Local runs keep the default
# profile and its random exploration.
settings.register_profile("ci", derandomize=True, deadline=None)
