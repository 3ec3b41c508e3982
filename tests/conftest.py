import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from parkplan.geometry import VehicleSpec


@pytest.fixture
def spec():
    return VehicleSpec()


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
