"""Result assembly for the CLI: runs, tables, bundles, and CSV emission.

A report bundle is a JSON document whose ``data`` section is a pure function
of the scenario and seed (timestamps live in ``meta``), so re-running a
scenario reproduces the data section byte for byte.
"""
from __future__ import annotations

import contextlib
import csv
import dataclasses
import datetime
import json
import os
import stat

import numpy as np

from . import __version__
from . import attacks, protocol
from .attacks import attack_success_curve, pns_exploitable_fraction
from .optics import (
    fit_half_angle_fringe,
    is_tuned,
    oracle_period,
    sideband_intensities_closed_form,
    sideband_intensities_oracle,
    tuning_offsets,
)
from .protocol import run_session
from .scenario import ScenarioError, build, build_session_configs

#: Candidate fringe prefactors in units of e0^2 * m1^2; the oracle decides.
PREFACTOR_CANDIDATES = {"e0^2*m1^2/8": 1 / 8, "e0^2*m1^2/16": 1 / 16}

#: Residual and spread tolerances enforced by verify mode on a tuned link.
VERIFY_RESIDUAL_TOL = 0.01
VERIFY_CLOSED_FORM_TOL = 1e-12


#: The session fields of a ``rates_table`` row, in CSV column order.
_RATES_COLUMNS = (
    "mode",
    "slots",
    "usable_slots",
    "sifted_bits",
    "qber",
    "useful_rate_bits_per_slot",
    "rate_ratio_vs_baseline",
)


def _ratio(rate: float, baseline_rate: float) -> float | None:
    """``rate`` over the baseline's, or None: the multiplier is undefined against a dead baseline."""
    return rate / baseline_rate if baseline_rate > 0 else None


def _sent_slot_rates(report) -> list[float]:
    """Each channel's sifted bits over the slots sent on it, erased meso slots included."""
    return [c.sifted_bits / report.slots for c in report.per_channel]


def simulate_results(resolved: dict) -> dict:
    """Run every configured mode and tabulate rates against the baseline.

    ``rate_ratio_vs_baseline`` is a mode's useful rate divided by that of the
    scenario's ``baseline_bb84`` session (same seed, channel and fault
    fraction), or null when the baseline rate is 0.  When ``modes`` omits
    the baseline it is run once for the ratio and not reported.

    ``useful_rate_bits_per_slot`` divides by the usable slots, which leave
    out every erased meso slot.  ``useful_rate_bits_per_sent_slot`` divides
    by every slot sent, per channel and, summed, per session, so the
    assisted modes pay for their erasures; ``rate_ratio_per_sent_slot_vs_baseline``
    is its ratio to the baseline's.  The results record the
    ``stream_layout`` the sessions consumed their random streams in.
    """
    configs = build_session_configs(resolved)
    reports = [run_session(config) for config in configs]
    baseline = next((r for r in reports if r.mode == "baseline_bb84"), None)
    if baseline is None and configs:
        baseline = run_session(dataclasses.replace(configs[0], mode="baseline_bb84"))
    baseline_per_sent = sum(_sent_slot_rates(baseline)) if configs else 0.0
    sessions = []
    rows = []
    for report in reports:
        per_sent = _sent_slot_rates(report)
        session = {
            **report.to_dict(),
            "rate_ratio_vs_baseline": _ratio(report.useful_rate_bits_per_slot, baseline.useful_rate_bits_per_slot),
            "useful_rate_bits_per_sent_slot": sum(per_sent),
            "rate_ratio_per_sent_slot_vs_baseline": _ratio(sum(per_sent), baseline_per_sent),
        }
        for channel, rate in zip(session["per_channel"], per_sent, strict=True):
            channel["useful_rate_bits_per_sent_slot"] = rate
        sessions.append(session)
        rows.append({name: session[name] for name in _RATES_COLUMNS})
    return {"sessions": sessions, "rates_table": rows, "stream_layout": protocol.STREAM_LAYOUT}


def _pns_rows(resolved: dict, trials: int, rng: np.random.Generator) -> list[dict]:
    sweep = resolved["attack_sweep"]
    rows = []
    for mu in sweep["pns_mu"]:
        for threshold in sweep["pns_thresholds"]:
            analytic = pns_exploitable_fraction(mu, threshold)
            draws = rng.poisson(mu, trials)
            mc = float(np.mean(draws >= threshold))
            rows.append(
                {
                    "mu": mu,
                    "threshold": threshold,
                    "analytic_fraction": analytic,
                    "mc_fraction": mc,
                    "mc_stderr": float(np.sqrt(max(mc * (1 - mc), analytic) / trials)),
                }
            )
    return rows


def attack_sweep_results(resolved: dict, workers: int = 1) -> dict:
    """Brute-force success curve plus the multi-photon exploitability table.

    ``attacks.attack_success_curve`` runs the sweep on the seed's generator,
    on ``workers`` processes at most, and the PNS table takes the next child
    of that generator, so the output is identical for any worker count; rows
    are ordered by grid index.  The results record the ``stream_layout`` the
    sweep consumed its streams in.
    """
    if workers < 1:
        raise ScenarioError(f"workers must be >= 1, got {workers}")
    sweep = resolved["attack_sweep"]
    m_bases = sweep["m_bases"]
    grid = [ratio * m_bases for ratio in sweep["alpha_sq_over_m_grid"]]
    root = np.random.default_rng(np.random.SeedSequence(resolved["seed"]))
    points = attack_success_curve(grid, m_bases, sweep["trials"], root, workers)
    # Columns: alpha_sq, m_bases, then the rest of the point's fields.
    rows = [{"alpha_sq": p.alpha_sq, "m_bases": m_bases, **dataclasses.asdict(p)} for p in points]

    rates = [row["success_rate"] for row in rows]
    errs = [row["stderr"] for row in rows]
    monotone = all(
        rates[i + 1] >= rates[i] - 2 * (errs[i] + errs[i + 1]) for i in range(len(rates) - 1)
    )
    return {
        "brute_force_table": rows,
        "monotone_within_2_stderr": monotone,
        "pns_table": _pns_rows(resolved, sweep["pns_mc_trials"], root.spawn(1)[0]),
        "stream_layout": attacks.STREAM_LAYOUT,
    }


def _fringe_sweep(plan, fiber, channel: int, points: int, num_samples: int) -> dict:
    """Closed-form vs oracle powers over one fringe-phase revolution."""
    upper, lower = f"upper{channel}", f"lower{channel}"
    rows = []
    for phase in np.linspace(0.0, 2 * np.pi, points, endpoint=False):
        swept = plan.with_phases(**{f"phi{channel}_a": phase})
        closed = sideband_intensities_closed_form(swept, fiber)
        oracle = sideband_intensities_oracle(swept, fiber, num_samples=num_samples)
        rows.append(
            {
                "delta_phi": float(phase),
                "closed_upper": getattr(closed, upper),
                "closed_lower": getattr(closed, lower),
                "oracle_upper": getattr(oracle, upper),
                "oracle_lower": getattr(oracle, lower),
            }
        )
    return {"channel": channel, "rows": rows}


def _relative_spread(values: np.ndarray) -> float:
    """(max - min) / mean, taken as 0 for an identically dark signal."""
    mean = float(np.mean(values))
    if mean == 0.0:
        return 0.0
    return float((np.max(values) - np.min(values)) / mean)


#: Sideband power below this fraction of e0^2 is double-precision spectral
#: noise, not signal: the channel is reported dark instead of fitted.
_DARK_CHANNEL_FLOOR = 1e-24


def _fit_block(rows, upper_kind: str, power_scale: float) -> dict:
    phases = [r["delta_phi"] for r in rows]
    upper = [r["oracle_upper"] for r in rows]
    lower = [r["oracle_lower"] for r in rows]
    lower_kind = "sin2" if upper_kind == "cos2" else "cos2"
    sums_oracle = np.array(upper) + np.array(lower)
    sums_closed = np.array([r["closed_upper"] + r["closed_lower"] for r in rows])
    block = {
        "upper_model": upper_kind,
        "lower_model": lower_kind,
        "dark": bool(sums_oracle.max() < _DARK_CHANNEL_FLOOR * power_scale),
        "closed_sum_max_deviation": float(np.max(np.abs(sums_closed - sums_closed.mean()))),
    }
    if block["dark"]:
        fitted = ("upper_amplitude", "upper_max_residual", "lower_amplitude", "lower_max_residual")
        block.update(dict.fromkeys(fitted + ("oracle_sum_relative_spread", "oracle_visibility"), 0.0))
        return block
    a_up, res_up = fit_half_angle_fringe(phases, upper, upper_kind)
    a_lo, res_lo = fit_half_angle_fringe(phases, lower, lower_kind)
    swing = max(upper) + min(upper)
    block.update(
        upper_amplitude=a_up,
        upper_max_residual=res_up,
        lower_amplitude=a_lo,
        lower_max_residual=res_lo,
        oracle_sum_relative_spread=_relative_spread(sums_oracle),
        oracle_visibility=float((max(upper) - min(upper)) / swing) if swing else 0.0,
    )
    return block


def optics_verify_results(resolved: dict) -> tuple[dict, bool]:
    """Fringe-law validation tables; returns (results, checks_passed).

    On a tuned link the residual, complementarity, and channel-independence
    tolerances are enforced and decide the boolean.  A detuned link reports
    a warning entry (with measured visibility) instead of failing.
    """
    plan = build(resolved, "plan")
    fiber = build(resolved, "fiber")
    section = resolved["optics_verify"]
    num_samples = section["num_samples"]
    try:
        oracle_period(plan, num_samples)
    except ValueError as exc:
        raise ScenarioError(f"optics_verify oracle grid: {exc}") from exc
    tuned = is_tuned(plan, fiber)
    off1, off2 = tuning_offsets(plan, fiber)

    sweeps = {}
    fits = {}
    for channel, upper_kind in ((1, "cos2"), (2, "sin2")):
        sweep = _fringe_sweep(plan, fiber, channel, section["sweep_points"], num_samples)
        sweeps[f"channel{channel}"] = sweep
        fits[f"channel{channel}"] = _fit_block(sweep["rows"], upper_kind, plan.e0**2)

    # Opposite-channel probe: sweep the channel-2 phase, watch channel 1 at
    # its half-fringe point (both arms powered, spreads well conditioned).
    cross_rows = []
    for phase in np.linspace(0.0, 2 * np.pi, section["cross_sweep_points"], endpoint=False):
        swept = plan.with_phases(phi1_a=np.pi / 2, phi2_a=float(phase))
        oracle = sideband_intensities_oracle(swept, fiber, num_samples=num_samples)
        cross_rows.append(
            {"delta_phi2": float(phase), "oracle_upper1": oracle.upper1, "oracle_lower1": oracle.lower1}
        )
    cross_spread = 0.0
    for arm in ("oracle_upper1", "oracle_lower1"):
        values = np.array([r[arm] for r in cross_rows])
        if values.max() >= _DARK_CHANNEL_FLOOR * plan.e0**2:
            cross_spread = max(cross_spread, _relative_spread(values))

    amplitude = fits["channel1"]["upper_amplitude"]
    unit = plan.e0**2 * plan.m1**2
    if unit > 0:  # 0 also when a tiny e0 or m1 underflows
        measured = amplitude / unit
        deltas = {name: abs(measured - value) for name, value in PREFACTOR_CANDIDATES.items()}
        confirmed = min(deltas, key=deltas.get)
    else:
        measured = None
        deltas = {name: None for name in PREFACTOR_CANDIDATES}
        confirmed = "undefined"

    results = {
        "tuned": tuned,
        "tuning_offsets_rad": {"channel1": off1, "channel2": off2},
        "fringe_sweeps": sweeps,
        "fits": fits,
        "cross_channel": {"rows": cross_rows, "channel1_relative_spread": cross_spread},
        "prefactor": {
            "fitted_amplitude": amplitude,
            "measured_over_e0sq_m1sq": measured,
            "candidates": {k: {"value": v, "distance": deltas[k]} for k, v in PREFACTOR_CANDIDATES.items()},
            "confirmed": confirmed,
        },
    }
    if not tuned:
        results["warnings"] = [
            "link phases are off the pi/2 / 3*pi/2 condition; fringe checks "
            "reported for information only (visibility < 1 expected)"
        ]
        return results, True

    ok = all(
        fits[ch][key] <= VERIFY_RESIDUAL_TOL
        for ch in ("channel1", "channel2")
        for key in ("upper_max_residual", "lower_max_residual", "oracle_sum_relative_spread")
    )
    ok = ok and all(
        fits[ch]["closed_sum_max_deviation"] <= VERIFY_CLOSED_FORM_TOL for ch in ("channel1", "channel2")
    )
    ok = ok and cross_spread <= VERIFY_RESIDUAL_TOL
    results["checks_passed"] = ok
    return results, ok


def make_bundle(command: str, scenario_raw: dict, resolved: dict, results: dict) -> dict:
    return {
        "meta": {
            "tool": "hpqkd",
            "version": __version__,
            "command": command,
            "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        },
        "data": {
            "seed": resolved["seed"],
            "scenario": scenario_raw,
            "resolved_scenario": resolved,
            "results": results,
        },
    }


def data_bytes(bundle: dict) -> bytes:
    """Canonical encoding of the reproducible part of a bundle.

    Strict JSON: any NaN/inf sneaking into results is a bug, so it raises
    here instead of producing a non-interoperable document.
    """
    return json.dumps(bundle["data"], sort_keys=True, indent=2, allow_nan=False).encode()


@contextlib.contextmanager
def _replaced_together():
    """Yield ``stage``; the files it opens replace their paths only once the block completes.

    ``with stage(path) as fh`` writes into a temporary sibling of ``path``
    (of its target, for a symlink, which stays a link).  On a failure in the
    block every temporary file is removed and no path is touched.  A pipe or
    device such as ``/dev/stdout`` cannot be replaced, so ``stage`` opens it
    for the text to stream straight into.
    """
    staged = []

    @contextlib.contextmanager
    def stage(path):
        try:
            regular = stat.S_ISREG(os.stat(path).st_mode)
        except FileNotFoundError:
            regular = True
        if not regular:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                yield fh
            return
        target = os.path.realpath(path)
        tmp = f"{target}.{os.getpid()}.tmp"
        with open(tmp, "x", encoding="utf-8", newline="") as fh:
            staged.append((tmp, target))
            yield fh

    try:
        yield stage
        for tmp, target in staged:
            os.replace(tmp, target)
    finally:
        for tmp, _ in staged:
            with contextlib.suppress(OSError):  # gone once replaced
                os.remove(tmp)


def write_bundle(bundle: dict, path) -> None:
    """Write ``json.dumps(bundle, sort_keys=True, indent=2, allow_nan=False) + "\\n"`` to ``path``.

    ``json.dump`` streams the text, never held whole, into a temporary file
    that replaces ``path`` once it is complete (see ``_replaced_together``).
    On any failure (a NaN in the results, a full disk) ``path`` is left as
    it was.
    """
    with _replaced_together() as stage, stage(path) as fh:
        json.dump(bundle, fh, sort_keys=True, indent=2, allow_nan=False)
        fh.write("\n")


#: Tables extractable as CSV per command: name -> path into the results dict.
CSV_TABLES = {
    "simulate": {"rates": ("rates_table",)},
    "attack-sweep": {"brute_force": ("brute_force_table",), "pns": ("pns_table",)},
    "optics-verify": {
        "fringe_ch1": ("fringe_sweeps", "channel1", "rows"),
        "fringe_ch2": ("fringe_sweeps", "channel2", "rows"),
        "cross_channel": ("cross_channel", "rows"),
    },
}


def write_outputs(bundle: dict, path, with_csv: bool) -> list[str]:
    """Write the bundle to ``path`` and, with ``with_csv``, its tables as CSV files next to it.

    All or nothing: the CSV files are staged as temporary files, then
    ``write_bundle`` writes the bundle, and only then do the CSV files
    replace their paths.  A failure while any file is written (a directory
    in the way, a NaN in the results, a full disk) leaves no new file and
    every older one intact.  Returns the paths written, the bundle last.
    """
    stem = str(path).removesuffix(".json")
    written = []
    with _replaced_together() as stage:
        for name, keys in CSV_TABLES[bundle["meta"]["command"]].items() if with_csv else ():
            rows = bundle["data"]["results"]
            for key in keys:
                rows = rows[key]
            if rows:
                written.append(f"{stem}_{name}.csv")
                with stage(written[-1]) as fh:
                    writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
                    writer.writeheader()
                    writer.writerows(rows)
        write_bundle(bundle, path)
    return written + [str(path)]
