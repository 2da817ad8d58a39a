"""Property tests draw the same examples on every run and keep no example
database, so two runs of the suite test the same inputs."""

from hypothesis import settings

settings.register_profile("fixed", derandomize=True, database=None)
settings.load_profile("fixed")
