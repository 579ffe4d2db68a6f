from hypothesis import settings

# Property tests draw the same examples on every run and have no time limit
# per example: a fixed example set cannot flake, and per-example timing on a
# shared machine says nothing about correctness.
settings.register_profile("emfkit", deadline=None, derandomize=True)
settings.load_profile("emfkit")
