from hypothesis import settings

# Every property test draws the same examples on every run, so the suite
# stays reproducible, and few of them, so it stays quick.  A test may lower
# max_examples with its own @settings.
settings.register_profile("sublra", derandomize=True, deadline=None,
                          max_examples=60)
settings.load_profile("sublra")
