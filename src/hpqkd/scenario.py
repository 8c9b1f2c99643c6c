"""Scenario files: one strict, fully defaulted JSON document per run.

Every key has a default, unknown keys are rejected with their path, and the
``schema_version`` field is mandatory.  The same file drives all three CLI
commands; each command reads its own section plus the shared ones.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .optics import SPEED_OF_LIGHT, FiberLink, ModulationPlan
from .protocol import ChannelModel, SessionConfig

SCHEMA_VERSION = 1

_DEFAULT_OMEGA1 = 2 * math.pi * 1.0e9
#: Shortest link length putting the two default tones on the pi/2 and
#: 3*pi/2 interference condition at index 1.5.
_DEFAULT_LENGTH_M = (math.pi / 2) * SPEED_OF_LIGHT / (1.5 * _DEFAULT_OMEGA1)


class ScenarioError(ValueError):
    """Scenario file could not be parsed or validated."""


@dataclass(frozen=True)
class _Key:
    default: object
    unit: str
    help: str


#: Full schema: section -> key -> (default, unit, description).  The CLI help
#: text is generated from this table, so it stays in sync by construction.
SCHEMA: dict[str, dict[str, _Key]] = {
    "": {
        "schema_version": _Key(None, "-", "scenario format version; must equal 1"),
        "seed": _Key(20260809, "-", "64-bit master seed for every random stream"),
    },
    "simulate": {
        "modes": _Key(
            ["baseline_bb84", "hybrid", "parallel", "hybrid_parallel"],
            "-",
            "session modes to run, in report order",
        ),
        "num_slots": _Key(10000, "slots", "time slots per session"),
        "basis_flip_fault_fraction": _Key(
            0.0, "fraction", "receiver-side basis-flip fault injected on this fraction of slots"
        ),
        "seed_key_hex": _Key(
            None, "hex", "pre-shared secret key (>= 16 hex bytes); derived from seed when null"
        ),
    },
    "channel": {
        "length_km": _Key(0.0, "km", "fiber span length"),
        "loss_db_per_km": _Key(0.2, "dB/km", "fiber attenuation"),
        "detector_efficiency": _Key(1.0, "probability", "single-photon detector efficiency"),
        "dark_count_prob": _Key(0.0, "probability/gate", "dark-count probability per detector gate"),
        "mu_weak": _Key(0.5, "photons", "mean photon number of weak pulses"),
        "alpha_sq_meso": _Key(25.0, "photons", "mean photon number of mesoscopic pulses"),
        "m_bases": _Key(256, "-", "basis count M (power of two)"),
    },
    "plan": {
        "e0": _Key(1.0, "field", "carrier field amplitude"),
        "omega0": _Key(2 * math.pi * 193.4e12, "rad/s", "optical carrier angular frequency (metadata)"),
        "psi1": _Key(3 * math.pi / 2, "rad", "Mach-Zehnder DC bias phase"),
        "m1": _Key(0.1, "-", "transmitter modulation depth, channel 1"),
        "m2": _Key(0.1, "-", "transmitter modulation depth, channel 2"),
        "m3": _Key(0.05, "-", "receiver modulation depth, channel 1"),
        "m4": _Key(0.05, "-", "receiver modulation depth, channel 2"),
        "omega1": _Key(_DEFAULT_OMEGA1, "rad/s", "RF tone of channel 1"),
        "omega2": _Key(3 * _DEFAULT_OMEGA1, "rad/s", "RF tone of channel 2"),
        "phi1_a": _Key(0.0, "rad", "transmitter RF phase, channel 1"),
        "phi2_a": _Key(0.0, "rad", "transmitter RF phase, channel 2"),
        "phi1_b": _Key(0.0, "rad", "receiver RF phase, channel 1"),
        "phi2_b": _Key(0.0, "rad", "receiver RF phase, channel 2"),
    },
    "fiber": {
        "length_m": _Key(_DEFAULT_LENGTH_M, "m", "interferometric link length"),
        "refractive_index": _Key(1.5, "-", "fiber group index"),
    },
    "attack_sweep": {
        "m_bases": _Key(64, "-", "candidate polarization count M for the brute-force attack"),
        "alpha_sq_over_m_grid": _Key(
            [2.0**e for e in range(-4, 7)],
            "-",
            "pulse intensities as multiples of M",
        ),
        "trials": _Key(1000, "-", "identification trials per grid point"),
        "pns_mu": _Key([0.05, 0.1, 0.2], "photons", "weak-pulse means for the multi-photon tail table"),
        "pns_thresholds": _Key([2, 3], "photons", "exploitable photon-number thresholds"),
        "pns_mc_trials": _Key(200000, "-", "Monte Carlo pulses per tail estimate"),
    },
    "optics_verify": {
        "sweep_points": _Key(32, "-", "fringe-phase sweep resolution per channel"),
        "num_samples": _Key(16384, "samples", "time-domain oracle grid size"),
        "cross_sweep_points": _Key(16, "-", "opposite-channel phase points for the independence probe"),
    },
}


def describe_keys() -> str:
    """Human-readable key table for the CLI help text."""
    lines = []
    for section, keys in SCHEMA.items():
        for name, key in keys.items():
            path = name if not section else f"{section}.{name}"
            lines.append(f"  {path:42s} [{key.unit}] {key.help} (default {key.default!r})")
    return "\n".join(lines)


def defaults() -> dict:
    out: dict = {}
    for section, keys in SCHEMA.items():
        target = out if not section else out.setdefault(section, {})
        for name, key in keys.items():
            # Copy list defaults so callers can never mutate the schema table.
            target[name] = list(key.default) if isinstance(key.default, list) else key.default
    out["schema_version"] = SCHEMA_VERSION
    return out


def _check_type(path: str, value, default) -> None:
    if default is None or value is None:
        return
    if isinstance(default, bool) or isinstance(value, bool):
        if type(value) is not type(default):
            raise ScenarioError(f"scenario key {path} must be a {type(default).__name__}")
        return
    if isinstance(default, (int, float)):
        if not isinstance(value, (int, float)):
            raise ScenarioError(f"scenario key {path} must be a number")
        return
    if not isinstance(value, type(default)):
        raise ScenarioError(f"scenario key {path} must be a {type(default).__name__}")


def _check_unknown(raw: dict) -> None:
    for key, value in raw.items():
        if key in SCHEMA[""]:
            _check_type(key, value, SCHEMA[""][key].default)
            continue
        if key not in SCHEMA:
            raise ScenarioError(f"unknown scenario key: {key!r}")
        if not isinstance(value, dict):
            raise ScenarioError(f"scenario section {key!r} must be an object")
        for sub, sub_value in value.items():
            if sub not in SCHEMA[key]:
                raise ScenarioError(f"unknown scenario key: {key!r}.{sub!r}")
            _check_type(f"{key}.{sub}", sub_value, SCHEMA[key][sub].default)


def resolve(raw: dict) -> dict:
    """Validate a raw scenario dict and fill in every default."""
    if not isinstance(raw, dict):
        raise ScenarioError("scenario must be a JSON object")
    if "schema_version" not in raw:
        raise ScenarioError("scenario is missing the mandatory schema_version field")
    if raw["schema_version"] != SCHEMA_VERSION:
        raise ScenarioError(
            f"unsupported schema_version {raw['schema_version']!r} (expected {SCHEMA_VERSION})"
        )
    _check_unknown(raw)
    merged = defaults()
    for key, value in raw.items():
        if isinstance(value, dict):
            merged[key].update(value)
        else:
            merged[key] = value
    seed = merged["seed"]
    if not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed < 2**64:
        raise ScenarioError(f"scenario key seed must be an integer in [0, 2**64), got {seed!r}")
    return merged


def _reject_constant(name: str):
    raise ScenarioError(f"scenario contains the non-finite number {name}")


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):  # a literal such as 1e999 overflows to inf
        _reject_constant(text)
    return value


def load(path) -> tuple[dict, dict]:
    """Read a scenario file; returns (raw document, resolved document)."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh, parse_constant=_reject_constant, parse_float=_finite_float)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario is not valid JSON: {exc}") from exc
    return raw, resolve(raw)


def build_plan(resolved: dict) -> ModulationPlan:
    try:
        return ModulationPlan(**resolved["plan"])
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"invalid plan: {exc}") from exc


def build_fiber(resolved: dict) -> FiberLink:
    try:
        return FiberLink(**resolved["fiber"])
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"invalid fiber: {exc}") from exc


def build_channel(resolved: dict) -> ChannelModel:
    try:
        return ChannelModel(**resolved["channel"])
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"invalid channel: {exc}") from exc


def _require_int(name: str, value, minimum: int) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ScenarioError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return value


def build_session_configs(resolved: dict) -> list[SessionConfig]:
    sim = resolved["simulate"]
    num_slots = _require_int("simulate.num_slots", sim["num_slots"], 1)
    channel = build_channel(resolved)
    plan = build_plan(resolved)
    fiber = build_fiber(resolved)
    configs = []
    for mode in sim["modes"]:
        try:
            configs.append(
                SessionConfig(
                    mode=mode,
                    num_slots=num_slots,
                    channel=channel,
                    plan=plan,
                    fiber=fiber,
                    seed=int(resolved["seed"]),
                    basis_flip_fault_fraction=float(sim["basis_flip_fault_fraction"]),
                    seed_key_hex=sim["seed_key_hex"],
                )
            )
        except (TypeError, ValueError) as exc:
            raise ScenarioError(f"invalid session config for mode {mode!r}: {exc}") from exc
    return configs
