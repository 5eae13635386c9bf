"""Shared fixtures.

The certified ground state is expensive (radial shooting plus a spectral
fixed-point solve on a 512^2 grid), so it is built once per session and
shared.  Tests must not mutate it; anything that needs a modified copy uses
dataclasses.replace.
"""

import time

import numpy as np
import pytest

from nls2d import (
    SpectralGrid,
    save_ground_state,
    solve_petviashvili,
    solve_radial_shooting,
)


@pytest.fixture(scope="session")
def shooting_profile():
    return solve_radial_shooting()


@pytest.fixture(scope="session")
def grid_cert():
    # smallest grid on which the full certification battery passes: the
    # profile needs L = 48 for clean boundary decay and n = 512 to resolve
    # the peak to sup error <= 1e-5 against the radial oracle
    return SpectralGrid(512, 48.0)


@pytest.fixture(scope="session")
def gs_cert(grid_cert, shooting_profile, solve_seconds):
    t0 = time.perf_counter()
    gs = solve_petviashvili(grid_cert, tol=1e-10, profile=shooting_profile)
    solve_seconds.append(time.perf_counter() - t0)
    return gs


@pytest.fixture(scope="session")
def solve_seconds():
    """Wall-clock seconds of the session ground-state solve (list of one)."""
    return []


@pytest.fixture(scope="session")
def gs_cache(gs_cert, tmp_path_factory):
    """Path of an on-disk copy of the session ground state."""
    path = tmp_path_factory.mktemp("gs") / "ground_state.nls2"
    save_ground_state(gs_cert, str(path))
    return str(path)


@pytest.fixture(scope="session")
def grid_256():
    return SpectralGrid(256, 32.0)


@pytest.fixture(scope="session")
def grid_128():
    return SpectralGrid(128, 32.0)


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)
