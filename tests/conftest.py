"""Shared fixtures: the desk-scale array, deterministic RNG streams and the
codebooks the mirror-pair tests cover."""

import sys

import numpy as np
import pytest

from nearfield.arraymodel import ArrayConfig
from nearfield.codebook import CodebookConfig, build_codebook
from nearfield.harness import load_scenario


def pytest_terminal_summary(terminalreporter):
    """Echo the acceptance verdict lines where capture cannot swallow them."""
    module = sys.modules.get("test_acceptance") or sys.modules.get(
        "tests.test_acceptance")
    if module is not None and module.VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in module.VERDICTS:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def desk_array() -> ArrayConfig:
    """64-element half-wavelength ULA used throughout the fast tests."""
    return ArrayConfig(num_antennas=64, wavelength=0.003)


@pytest.fixture(scope="session")
def wide_array() -> ArrayConfig:
    """256-element array matching the large-scale reference configuration."""
    return ArrayConfig(num_antennas=256, wavelength=0.003)


# name: (scenario, CodebookConfig kwargs, (codewords, steering columns,
# twins)). At delta_alpha = 0.37 no cos theta of the 172 has its negation
# on the grid.
MIRROR_CODEBOOKS = {
    "tab2_desk": ("scenarios/tab2_desk.json", {}, (1083, 548, 535)),
    "tab2_paper": ("scenarios/tab2_paper.json", {}, (17965, 9009, 8956)),
    "desk_asymmetric_angles": ("scenarios/tab2_desk.json", {"delta_alpha": 0.37},
                               (1464, 1464, 0)),
}


@pytest.fixture(scope="session", params=sorted(MIRROR_CODEBOOKS))
def mirror_case(request):
    """One of the mirror-pair codebooks, with its expected sizes."""
    path, kwargs, sizes = MIRROR_CODEBOOKS[request.param]
    return build_codebook(load_scenario(path).array, CodebookConfig(**kwargs)), sizes


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


def random_path(cfg: ArrayConfig, rng: np.random.Generator, g_range=(0.5, 2.0)):
    """Random in-annulus path with uniformly drawn angle cosine."""
    from nearfield.arraymodel import PathParams

    cos_t = rng.uniform(-0.98, 0.98)
    return PathParams(
        theta=float(np.arccos(cos_t)),
        r=float(rng.uniform(cfg.min_near_distance * 1.05, cfg.rayleigh_distance)),
        g=float(rng.uniform(*g_range)),
        phi=float(rng.uniform(0.0, 2.0 * np.pi)),
    )
