"""Output checks on the report bundles a workload writes.

No output digest is pinned: a documented change of how random numbers are
consumed changes ``data`` legitimately.  Within one benchmark invocation the
same seed must still give byte-identical ``data``.
"""
from __future__ import annotations

import hashlib
import json
import math

#: Useful-rate multipliers against ``baseline_bb84`` (the paper's 2x and 4x).
RATE_TARGETS = {"hybrid": 2.0, "parallel": 2.0, "hybrid_parallel": 4.0}

CONFIRMED_PREFACTOR = "e0^2*m1^2/8"


def _reject_constant(name):
    raise ValueError(f"bundle holds the non-JSON constant {name}")


def load_strict(path) -> dict:
    """Parse a bundle, refusing ``NaN``, ``Infinity`` and ``-Infinity``."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh, parse_constant=_reject_constant)


def data_digest(bundle: dict) -> str:
    """Digest of the reproducible ``data`` section."""
    encoded = json.dumps(bundle["data"], sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(encoded.encode()).hexdigest()


def _rate_variance(session: dict) -> float:
    """Binomial variance of a session's useful rate (acceptance criterion 4)."""
    total = 0.0
    for channel in session["per_channel"]:
        p = channel["useful_rate_bits_per_slot"]
        usable = channel["sifted_bits"] / p if p > 0 else session["slots"]
        total += p * (1 - p) / usable
    return total


def rate_multiplier_checks(results: dict) -> list[tuple[str, bool, str]]:
    """Each ``rates_table`` ratio within 3 binomial sigma of its target."""
    sessions = {s["mode"]: s for s in results["sessions"]}
    ratios = {row["mode"]: row["rate_ratio_vs_baseline"] for row in results["rates_table"]}
    base = sessions["baseline_bb84"]
    base_rate = base["useful_rate_bits_per_slot"]
    out = []
    for mode, target in RATE_TARGETS.items():
        rate = sessions[mode]["useful_rate_bits_per_slot"]
        ratio = ratios[mode]
        if ratio is None or rate <= 0 or base_rate <= 0:
            out.append((f"rate_ratio.{mode}", False, f"ratio {ratio}, rate {rate}, baseline {base_rate}"))
            continue
        relative_var = _rate_variance(sessions[mode]) / rate**2 + _rate_variance(base) / base_rate**2
        sigma = target * math.sqrt(relative_var)
        ok = abs(ratio - target) <= 3 * sigma
        out.append((f"rate_ratio.{mode}", ok, f"{ratio:.4f} vs {target} (3 sigma {3 * sigma:.4f})"))
    return out


def result_checks(command: str, results: dict) -> list[tuple[str, bool, str]]:
    """(name, passed, detail) for every content check of one command's results."""
    if command == "simulate":
        return rate_multiplier_checks(results)
    if command == "attack-sweep":
        monotone = results["monotone_within_2_stderr"]
        return [("monotone_within_2_stderr", monotone is True, str(monotone))]
    confirmed = results["prefactor"]["confirmed"]
    return [
        ("checks_passed", results.get("checks_passed") is True, str(results.get("checks_passed"))),
        ("prefactor", confirmed == CONFIRMED_PREFACTOR, confirmed),
    ]
