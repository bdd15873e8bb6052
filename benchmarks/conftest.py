"""Fixtures shared by the benchmark harness."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from paper.simulator import CostModel


@pytest.fixture(scope="session")
def model():
    return CostModel()
