"""Scenario files: one strict, fully defaulted JSON document per run.

Every key has a default, unknown keys are rejected with their path, and the
``schema_version`` field is mandatory.  The same file drives all three CLI
commands; each command reads its own section plus the shared ones.
"""
from __future__ import annotations

import json
import math
import sys
import warnings
from dataclasses import dataclass, fields

from .attacks import MAX_ATTACK_M_BASES
from .keystream import SeedKey
from .optics import FiberLink, ModulationPlan, tuned_fiber
from .protocol import MAX_PHOTONS, MODES, ChannelModel, SessionConfig

SCHEMA_VERSION = 1


class ScenarioError(ValueError):
    """Scenario file could not be parsed or validated."""


#: Largest accepted ``simulate.num_slots``.  A session holds its per-slot
#: bit strings packed, and K' holds one bit per meso slot at any M, so what
#: grows with the slot count is those strings and the published ones.  A run
#: of all four modes at this cap (seed 3, one BLAS thread) peaks at 90-92 MiB
#: RSS at M = 256 and at M = ``keystream.MAX_M_BASES``, on the lossless and
#: the 100-km, 1e-5-dark link (33 MiB of it the imported package).  It takes
#: 0.15-0.19 s on the lossless link and 0.26-0.32 s on the other, with a
#: 22.5 MB bundle.
MAX_NUM_SLOTS = 10_000_000

#: Largest accepted ``attack_sweep.trials``: a grid point takes 9-17 us per
#: trial at M = 64 and 250-360 us at M = ``MAX_ATTACK_M_BASES`` (one BLAS
#: thread, 2-core VM; memory stays flat, trials run in blocks), so up to 1.7 s
#: and 36 s per point at the cap, where a success rate has a standard error
#: of at most 1.6e-3.
MAX_ATTACK_TRIALS = 100_000

#: Largest accepted ``attack_sweep.pns_mc_trials``: the PNS table draws its
#: pulses in blocks (``attacks.pns_tail_fractions``), so it peaks at 0.5-1.1
#: MiB traced for any count.  It draws only the pulses whose first photon
#: arrives before the largest mean, 18% of them at the default means, where
#: the whole table takes 3.7-6.4 ns per pulse; with a mean of 1e6 every
#: pulse is drawn to its third photon, at 41-62 ns per pulse (four timing
#: runs, numpy 2.4.6, one BLAS thread, 2-core VM): 0.04-0.62 s at the cap.
MAX_PNS_MC_TRIALS = 10_000_000

#: Most entries in ``attack_sweep.alpha_sq_over_m_grid``: each entry is one
#: sweep point, about 13 ms at the default M = 64 and 1000 trials and up to
#: 36 s at the M and trials caps, so a full grid takes 0.8 s at the defaults
#: and at most 40 min (six times the default 11 points).
MAX_GRID_POINTS = 64

#: Most entries in ``attack_sweep.pns_mu``: each mean gives one PNS row per
#: threshold, and all rows share one draw, whose cost grows with the largest
#: mean and only as log(means) with their number: 0.8-1.4 ms at the default
#: 2e5 trials and means, 16-24 ms with 64 means reaching 1e6, and 0.78-0.81 s
#: for those 64 means at ``MAX_PNS_MC_TRIALS`` (same runs as above).
MAX_PNS_MU = 64

#: Largest accepted ``optics_verify.num_samples``: a spectrum allocates at
#: most 24 B and takes 20-30 ns per sample (one BLAS thread, 2-core VM), and
#: a cached grid (a command builds one, the cache keeps 2) holds 80 B per
#: sample, so 25 MB and 0.02-0.03 s per spectrum plus 84 MB per grid;
#: ``optics-verify`` peaks at 154 MB RSS with 6 spectra, a peak that the
#: grid build sets.
MAX_ORACLE_SAMPLES = 2**20

#: Largest accepted ``optics_verify.sweep_points`` and ``cross_sweep_points``:
#: a point is one spectrum, ~0.3 ms on the default grid, so ~0.3 s per sweep.
MAX_SWEEP_POINTS = 1024


@dataclass(frozen=True)
class _Key:
    """One key: default, unit, help, and the rule its value follows.

    A value has the default's type (int means int, not bool or 256.0; float
    any finite number; a list a non-empty list, a null default a string or
    null), and ``low``/``high`` or ``choices`` bound each entry.  A list
    has a length rule: a list of ``choices`` names each at most once, and
    any other list holds at most ``max_len`` entries.
    """

    default: object
    unit: str
    help: str
    low: float | None = None
    high: float | None = None
    choices: tuple | None = None
    max_len: int | None = None


def _section(cls, **defaults) -> dict[str, _Key]:
    """One key per ``optics.param`` field of ``cls``; ``defaults`` replaces a field's default."""
    return {f.name: _Key(defaults.get(f.name, f.default), **f.metadata) for f in fields(cls) if f.metadata}


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
        **_section(SessionConfig),  # basis_flip_fault_fraction, its one param field
        "seed_key_hex": _Key(
            None, "hex", "pre-shared secret key, 16 to 128 hex digits (8 to 64 bytes); derived from seed when null"
        ),
    },
    # The physical sections are declared once, on the fields of the objects they build.
    "channel": _section(ChannelModel),
    "plan": _section(ModulationPlan),
    "fiber": _section(FiberLink, length_m=tuned_fiber(ModulationPlan()).length_m),
    "attack_sweep": {
        "m_bases": _Key(
            64, "-", "candidate polarization count M for the brute-force attack", low=2, high=MAX_ATTACK_M_BASES
        ),
        "alpha_sq_over_m_grid": _Key(
            [2.0**e for e in range(-4, 7)],
            "-",
            "pulse intensities as multiples of M",
            low=0,
            high=MAX_PHOTONS,
            max_len=MAX_GRID_POINTS,
        ),
        "trials": _Key(1000, "-", "identification trials per grid point", low=100, high=MAX_ATTACK_TRIALS),
        "pns_mu": _Key(
            [0.05, 0.1, 0.2],
            "photons",
            "weak-pulse means for the multi-photon table",
            low=0,
            high=MAX_PHOTONS,
            max_len=MAX_PNS_MU,
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
    if not isinstance(key.default, list):
        return text
    length = "no entry twice" if key.choices is not None else f"at most {key.max_len}"
    return f"a list of one or more entries, {length}, each {text}"


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
        if not (isinstance(value, list) and value and all(_valid_entry(key, kind, v) for v in value)):
            return False
        return len(set(value)) == len(value) if key.choices is not None else len(value) <= key.max_len
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
    command reads them, and so is every ``build`` of the three objects.
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
    if merged["simulate"]["seed_key_hex"] is not None:
        try:
            SeedKey.from_hex(merged["simulate"]["seed_key_hex"])
        except ValueError as exc:
            raise ScenarioError(f"scenario key simulate.seed_key_hex is not a seed key: {exc}") from exc
    # The rules that span keys (M a power of two, distinct tones below the
    # carrier) hold for every command; a command warns when it builds an object.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for section in _OBJECTS:
            build(merged, section)
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


#: The object each physical section of a scenario builds.
_OBJECTS = {"channel": ChannelModel, "plan": ModulationPlan, "fiber": FiberLink}


def build(resolved: dict, section: str):
    """The ``channel``, ``plan`` or ``fiber`` object of a resolved scenario; its warnings fire here."""
    try:
        return _OBJECTS[section](**resolved[section])
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"invalid {section}: {exc}") from exc


def build_session_configs(resolved: dict) -> list[SessionConfig]:
    sim = resolved["simulate"]
    channel, plan, fiber = (build(resolved, section) for section in ("channel", "plan", "fiber"))
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
