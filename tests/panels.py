"""Helper shared by the test modules."""

from covcusum import sumproc


def products(panel, pair):
    """The product series of each observation matrix of ``panel`` through ``pair``."""
    return [sumproc.project(y, pair) for y in panel]
