"""Built-in model instances and machine description for the three-spin register.

Spin map: modes (1, 2, 3) sit on (H, C, F) of a CHFBr2-like molecule with
scalar couplings J_HC = 224 Hz, J_HF = 50 Hz, J_CF = -311 Hz. Preset "h1"
couples all three modes (V_ml = pi J_ml); preset "h2" couples only modes 1-2
with V = pi * 224 rad/s. The h2 gap published for this instance matches
coefficients twice the nominal ones, so h2 defaults to convention_factor 2
(factor 1 is a documented alternative that halves the gap).

Non-published machine parameters take SpinSystem's typical values: t_pi =
20 us and T2 = 0.25 s for every spin (0.25 s is the carbon dephasing time
the damped fits are anchored to).
"""

from __future__ import annotations

import math

import numpy as np

from .hamiltonian import PairingModel
from .nmr import SpinSystem

_PI = math.pi

PRESET_NAMES = ("h1", "h2")

_NU = (150 * _PI, 100 * _PI, 50 * _PI)
_J_HZ = np.array(
    [
        [0.0, 224.0, 50.0],
        [224.0, 0.0, -311.0],
        [50.0, -311.0, 0.0],
    ]
)

# Default pipeline parameters per preset. h1 runs at the published
# t0 = 2 ms, h2 at t0 = 0.5 ms, both with ExperimentConfig's default Q. Both
# use k = 2, a 4-step interpolation at t_ad = 1/700 s from |011>, and observe
# spin 1.
DEFAULTS = {
    "h1": {"t0": 2e-3, "k": 2},
    "h2": {"t0": 0.5e-3, "k": 2},
}
SCHEDULE_STEPS = 4
SCHEDULE_T_AD = 1.0 / 700.0
INIT_BITS = "011"
OBSERVED_SPIN = 1


def pairing_model(name: str) -> PairingModel:
    """Preset model with the preset's own convention factor."""
    if name == "h1":
        return PairingModel(_NU, _PI * _J_HZ, 1.0)
    if name == "h2":
        coupling = np.zeros((3, 3))
        coupling[0, 1] = coupling[1, 0] = _PI * 224.0
        return PairingModel(_NU, coupling, 2.0)
    raise ValueError(f"unknown preset {name!r} (choose from {PRESET_NAMES})")


def spin_system() -> SpinSystem:
    """The register's couplings with SpinSystem's default t_pi and T2."""
    return SpinSystem(_J_HZ)
