"""Shared fixtures: the m=25 worked example, complete and before completion.
The helpers and brute-force references live in ``oracles.py``."""

import pytest

import forestbound as fb
from oracles import EXAMPLE_ATOMS, EXAMPLE_COMPLETION, EXAMPLE_M, EXAMPLE_REGIONS


@pytest.fixture
def partial_family():
    """The example family before completion (atoms 2, 6, 8 missing)."""
    return fb.ForestFamily(EXAMPLE_M, EXAMPLE_ATOMS, EXAMPLE_REGIONS)


@pytest.fixture
def example_family():
    """The completed example family (12 regions, height 3)."""
    return fb.ForestFamily(
        EXAMPLE_M, EXAMPLE_ATOMS, EXAMPLE_REGIONS + EXAMPLE_COMPLETION
    )
