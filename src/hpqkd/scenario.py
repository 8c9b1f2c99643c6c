"""Scenario files: one strict, fully defaulted JSON document per run.

Every key has a default, unknown keys are rejected with their path, and the
``schema_version`` field is mandatory.  The same file drives all three CLI
commands; each command reads its own section plus the shared ones.
"""
from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass

from .keystream import MAX_M_BASES
from .optics import SPEED_OF_LIGHT, FiberLink, ModulationPlan
from .protocol import MODES, ChannelModel, SessionConfig

SCHEMA_VERSION = 1

_DEFAULT_OMEGA1 = 2 * math.pi * 1.0e9
#: Shortest link length putting the two default tones on the pi/2 and
#: 3*pi/2 interference condition at index 1.5.
_DEFAULT_LENGTH_M = (math.pi / 2) * SPEED_OF_LIGHT / (1.5 * _DEFAULT_OMEGA1)


class ScenarioError(ValueError):
    """Scenario file could not be parsed or validated."""


#: Largest accepted ``simulate.num_slots``: all four modes hold about 120 B
#: per slot at M = 256 (160 MB peak RSS at 1e6 slots), so a run stays near
#: 1.2 GB.  The expanded key holds log2(M) bytes per slot and channel, so at
#: M = ``keystream.MAX_M_BASES`` ``hybrid_parallel`` needs about 2.1 GB.
MAX_NUM_SLOTS = 10_000_000

#: Largest accepted ``attack_sweep.m_bases``: the hypothesis tables of the
#: brute-force sweep grow as M^2 (132 MB peak at M = 1024 with 1000 trials).
MAX_ATTACK_M_BASES = 1024

#: Largest accepted ``attack_sweep.pns_mc_trials``: a PNS row draws 9 B and
#: ~30 ns per trial, so 90 MB and 0.3 s per row at the cap.
MAX_PNS_MC_TRIALS = 10_000_000

#: Largest accepted ``optics_verify.num_samples``: a spectrum peaks near 60 B
#: and takes ~80 ns per sample, and each of up to 4 cached grids holds 24 B
#: per sample, so 60 MB and 0.1 s per spectrum plus 100 MB of cache.
MAX_ORACLE_SAMPLES = 2**20

#: Largest accepted ``optics_verify.sweep_points`` and ``cross_sweep_points``:
#: a point is one spectrum, ~2 ms on the default grid, so ~2 s per sweep.
MAX_SWEEP_POINTS = 1024

#: Largest accepted mean photon number of a pulse: far above any physical
#: setting, and far below the ~9.2e18 mean numpy's Poisson sampler refuses.
_MAX_PHOTONS = 1e6

#: Largest accepted ``plan.e0`` and modulation depth (rad; one turn of drive
#: phase, 30x the small-signal limit): every power and e0^2*m^2 product of
#: the optics stays below ~1e18, where e0 or m1 = 1e160 overflowed.
_MAX_FIELD = 1e6
_MAX_DEPTH = 2 * math.pi


@dataclass(frozen=True)
class _Key:
    """One key: default, unit, help, and the rule its value follows.

    A value has the default's type (int means int, not bool or 256.0; float
    any finite number; a list a non-empty list, a null default a string or
    null), and ``low``/``high`` or ``choices`` bound each entry.
    """

    default: object
    unit: str
    help: str
    low: float | None = None
    high: float | None = None
    choices: tuple | None = None


#: Full schema: section -> key -> rule.  The CLI help text is generated from
#: this table, so the documented contract and the checks cannot drift apart.
SCHEMA: dict[str, dict[str, _Key]] = {
    "": {
        "schema_version": _Key(SCHEMA_VERSION, "-", "scenario format version, mandatory", choices=(SCHEMA_VERSION,)),
        "seed": _Key(20260809, "-", "64-bit master seed for every random stream", low=0, high=2**64 - 1),
    },
    "simulate": {
        "modes": _Key(list(MODES), "-", "session modes to run, in report order", choices=MODES),
        "num_slots": _Key(10000, "slots", "time slots per session", low=1, high=MAX_NUM_SLOTS),
        "basis_flip_fault_fraction": _Key(
            0.0, "fraction", "receiver-side basis-flip fault injected on this fraction of slots"
        ),
        "seed_key_hex": _Key(
            None, "hex", "pre-shared secret key, at least 16 hex digits (8 bytes); derived from seed when null"
        ),
    },
    "channel": {
        "length_km": _Key(0.0, "km", "fiber span length"),
        "loss_db_per_km": _Key(0.2, "dB/km", "fiber attenuation"),
        "detector_efficiency": _Key(1.0, "probability", "single-photon detector efficiency"),
        "dark_count_prob": _Key(0.0, "probability/gate", "dark-count probability per detector gate"),
        "mu_weak": _Key(0.5, "photons", "mean photon number of weak pulses", low=0, high=_MAX_PHOTONS),
        "alpha_sq_meso": _Key(25.0, "photons", "mean photon number of mesoscopic pulses", low=0, high=_MAX_PHOTONS),
        "m_bases": _Key(256, "-", "basis count M (power of two)", low=2, high=MAX_M_BASES),
    },
    "plan": {
        "e0": _Key(1.0, "field", "carrier field amplitude", low=0, high=_MAX_FIELD),
        "omega0": _Key(2 * math.pi * 193.4e12, "rad/s", "optical carrier angular frequency (metadata)"),
        "psi1": _Key(3 * math.pi / 2, "rad", "Mach-Zehnder DC bias phase"),
        "m1": _Key(0.1, "rad", "transmitter modulation depth, channel 1", low=0, high=_MAX_DEPTH),
        "m2": _Key(0.1, "rad", "transmitter modulation depth, channel 2", low=0, high=_MAX_DEPTH),
        "m3": _Key(0.05, "rad", "receiver modulation depth, channel 1", low=0, high=_MAX_DEPTH),
        "m4": _Key(0.05, "rad", "receiver modulation depth, channel 2", low=0, high=_MAX_DEPTH),
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
        "m_bases": _Key(
            64, "-", "candidate polarization count M for the brute-force attack", low=2, high=MAX_ATTACK_M_BASES
        ),
        "alpha_sq_over_m_grid": _Key(
            [2.0**e for e in range(-4, 7)], "-", "pulse intensities as multiples of M", low=0, high=_MAX_PHOTONS
        ),
        "trials": _Key(1000, "-", "identification trials per grid point", low=100),
        "pns_mu": _Key(
            [0.05, 0.1, 0.2], "photons", "weak-pulse means for the multi-photon table", low=0, high=_MAX_PHOTONS
        ),
        "pns_thresholds": _Key([2, 3], "photons", "exploitable photon-number thresholds", choices=(2, 3)),
        "pns_mc_trials": _Key(200000, "-", "Monte Carlo pulses per tail estimate", low=1, high=MAX_PNS_MC_TRIALS),
    },
    "optics_verify": {
        "sweep_points": _Key(32, "-", "fringe-phase sweep resolution per channel", low=2, high=MAX_SWEEP_POINTS),
        "num_samples": _Key(16384, "samples", "time-domain oracle grid size", low=2, high=MAX_ORACLE_SAMPLES),
        "cross_sweep_points": _Key(
            16, "-", "opposite-channel phase points for the independence probe", low=1, high=MAX_SWEEP_POINTS
        ),
    },
}


def _rule(key: _Key) -> str:
    """The key's rule in words, as the help text and error messages state it."""
    if key.default is None:
        return "a string or null"
    entry = key.default[0] if isinstance(key.default, list) else key.default
    text = {int: "an integer", float: "a number", str: "a string"}[type(entry)]
    if key.choices is not None:
        text += " in {" + ", ".join(map(repr, key.choices)) + "}"
    elif key.low is not None:
        text += f" >= {key.low!r}" if key.high is None else f" in [{key.low!r}, {key.high!r}]"
    return f"a list of one or more entries, each {text}" if isinstance(key.default, list) else text


def _valid_entry(key: _Key, kind: type, value) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        return False
    if kind is float and not abs(value) <= sys.float_info.max:  # NaN, inf, an int too big for a float
        return False
    if key.choices is not None:
        return value in key.choices
    return (key.low is None or value >= key.low) and (key.high is None or value <= key.high)


def _valid(key: _Key, value) -> bool:
    if key.default is None:
        return value is None or isinstance(value, str)
    if isinstance(key.default, list):
        kind = type(key.default[0])
        return isinstance(value, list) and bool(value) and all(_valid_entry(key, kind, v) for v in value)
    return _valid_entry(key, type(key.default), value)


def describe_keys() -> str:
    """Human-readable key table, with each key's rule, for the CLI help text."""
    lines = []
    for section, keys in SCHEMA.items():
        for name, key in keys.items():
            path = name if not section else f"{section}.{name}"
            lines.append(f"  {path:42s} [{key.unit}] {key.help}; {_rule(key)} (default {key.default!r})")
    return "\n".join(lines)


def defaults() -> dict:
    out: dict = {}
    for section, keys in SCHEMA.items():
        target = out if not section else out.setdefault(section, {})
        for name, key in keys.items():
            # Copy list defaults so callers can never mutate the schema table.
            target[name] = list(key.default) if isinstance(key.default, list) else key.default
    return out


def resolve(raw: dict, overrides: dict | None = None) -> dict:
    """Fill in every default, apply ``overrides``, and check every key by its rule.

    ``overrides`` maps a key path such as ``"attack_sweep.trials"`` to a
    value that replaces the scenario's.  All keys are checked, whichever
    command reads them.
    """
    if not isinstance(raw, dict):
        raise ScenarioError("scenario must be a JSON object")
    if "schema_version" not in raw:
        raise ScenarioError("scenario is missing the mandatory schema_version field")
    merged = defaults()
    for key, value in raw.items():
        if key in SCHEMA[""]:
            merged[key] = value
            continue
        if key not in SCHEMA:
            raise ScenarioError(f"unknown scenario key: {key!r}")
        if not isinstance(value, dict):
            raise ScenarioError(f"scenario section {key!r} must be an object")
        for sub in value:
            if sub not in SCHEMA[key]:
                raise ScenarioError(f"unknown scenario key: {key!r}.{sub!r}")
        merged[key].update(value)
    for path, value in (overrides or {}).items():
        section, _, name = path.rpartition(".")
        (merged[section] if section else merged)[name] = value
    for section, keys in SCHEMA.items():
        values = merged[section] if section else merged
        for name, key in keys.items():
            if not _valid(key, values[name]):
                path = f"{section}.{name}" if section else name
                raise ScenarioError(f"scenario key {path} must be {_rule(key)}, got {values[name]!r}")
    return merged


def _reject_constant(name: str):
    raise ScenarioError(f"scenario contains the non-finite number {name}")


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):  # a literal such as 1e999 overflows to inf
        _reject_constant(text)
    return value


def load(path, overrides: dict | None = None) -> tuple[dict, dict]:
    """Read a scenario file; returns (raw document, resolved document).

    ``overrides`` is passed to ``resolve``; the raw document stays as read.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh, parse_constant=_reject_constant, parse_float=_finite_float)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON, bad UTF-8, a too-long int, deep nesting
        raise ScenarioError(f"scenario is not valid JSON: {exc}") from exc
    return raw, resolve(raw, overrides)


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


def build_session_configs(resolved: dict) -> list[SessionConfig]:
    sim = resolved["simulate"]
    channel = build_channel(resolved)
    plan = build_plan(resolved)
    fiber = build_fiber(resolved)
    configs = []
    for mode in sim["modes"]:
        try:
            configs.append(
                SessionConfig(
                    mode=mode,
                    num_slots=sim["num_slots"],
                    channel=channel,
                    plan=plan,
                    fiber=fiber,
                    seed=resolved["seed"],
                    basis_flip_fault_fraction=float(sim["basis_flip_fault_fraction"]),
                    seed_key_hex=sim["seed_key_hex"],
                )
            )
        except (TypeError, ValueError) as exc:
            raise ScenarioError(f"invalid session config for mode {mode!r}: {exc}") from exc
    return configs
