import numpy as np
import pytest
from hypothesis import Phase, settings

import hypcurv as hc

# Property tests draw the same examples on every run, keep no example database
# and write no patch files for failing examples.
settings.register_profile("tier1", derandomize=True, database=None, deadline=None,
                          phases=[p for p in Phase if p != Phase.explain])
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def grid_m1():
    return hc.build_grid(1, 6)


@pytest.fixture(scope="session")
def grid_m2():
    return hc.build_grid(2, 6)


@pytest.fixture(scope="session")
def octahedron():
    dirs = np.array([[1.0, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]])
    return hc.from_vertices(2, dirs, np.ones(6))


@pytest.fixture(scope="session")
def square():
    return hc.regular_polygon(4, 1.0)


@pytest.fixture(scope="session")
def criterion06_bodies():
    """The 30 + 30 random bodies that acceptance criterion 06 round-trips.

    Drawn exactly as the ``bodies_m1``/``bodies_m2`` fixtures of
    test_acceptance.py draw their first 30 bodies, keyed by dimension.
    """
    bodies = {}
    for m, seed, low, high in ((1, 2024, 4, 9), (2, 4048, 6, 11)):
        rng = np.random.default_rng(seed)
        bodies[m] = [hc.random_polytope(m, int(rng.integers(low, high)), rng)
                     for _ in range(30)]
    return bodies
