"""Session fixtures any test module may ask for: the differential
inputs and reference trees of :mod:`tests.differential`."""

from tests.differential import references, streams  # noqa: F401
