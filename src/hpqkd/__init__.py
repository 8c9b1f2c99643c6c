"""Sideband-interference QKD with keystream-driven mesoscopic polarization.

Physics core (``optics``, ``polarization``), the brute-force and PNS attack
models (``attacks``), the shared-key pipeline (``keystream``), the four-mode
session engine (``protocol``), and the scenario-driven CLI (``cli``).
"""

__version__ = "0.1.0"

from .optics import (
    FiberLink,
    ModulationPlan,
    SidebandSpectrum,
    sideband_intensities_closed_form,
    sideband_intensities_oracle,
    tuned_fiber,
)
from .polarization import overlap_exact
from .attacks import attack_success_curve, pns_exploitable_fraction
from .keystream import (
    ExpandedKey,
    SeedKey,
    expand_key,
)
from .protocol import (
    ChannelModel,
    SessionConfig,
    SessionReport,
    run_session,
)

__all__ = [
    "__version__",
    "FiberLink",
    "ModulationPlan",
    "SidebandSpectrum",
    "sideband_intensities_closed_form",
    "sideband_intensities_oracle",
    "tuned_fiber",
    "overlap_exact",
    "attack_success_curve",
    "pns_exploitable_fraction",
    "ExpandedKey",
    "SeedKey",
    "expand_key",
    "ChannelModel",
    "SessionConfig",
    "SessionReport",
    "run_session",
]
