"""Verification-suite helpers."""

import numpy as np
import pytest

from gpssvs import Nonlinearity
from gpssvs.states import EVEN, FockExpansion
from gpssvs.verify import _spare_mass


def test_spare_mass_is_an_amplitude():
    # It is weighed against amplitude tolerances, so 1e-5 of amplitude
    # beyond the shared window must read 1e-5, not its weight 1e-10.
    state = FockExpansion(parity=EVEN, log_mags=np.log([1.0, 1e-5]),
                          phases=np.zeros(2), truncation=2, tail_bound=0.0,
                          nl=Nonlinearity.harmonic(), spec=None, tol=1e-12)
    assert _spare_mass(state, 1) == pytest.approx(1e-5, rel=1e-12)
    assert _spare_mass(state, 2) == 0.0
