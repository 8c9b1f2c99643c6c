#!/usr/bin/env python3
"""Useful-bit-rate multipliers of the four session modes across link losses.

The keystream-assisted modes remove sifting (x2) and the two-tone composition
doubles again (x4).  Per usable slot (``ratio``, the bundles'
``rate_ratio_vs_baseline``) those multipliers hold at any loss, because the
erased meso slots are left out of the count.  Per sent slot (``sent_ratio``,
``rate_ratio_per_sent_slot_vs_baseline``) the assisted modes pay for every
erasure, so their multipliers fall as the mesoscopic pulses are lost, and
fall below 1 on a long enough link.  Each length is one ``simulate``
scenario ("n/a" where the baseline rate is 0).
"""
import argparse

from hpqkd import scenario
from hpqkd.reporting import simulate_results


def _text(ratio) -> str:
    return f"{ratio:.3f}" if ratio is not None else "n/a"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--slots", type=int, default=20000)
    parser.add_argument("--seed", type=int, default=20260809)
    parser.add_argument(
        "--lengths-km", type=float, nargs="+", default=[0.0, 10.0, 25.0, 50.0]
    )
    args = parser.parse_args()

    print(f"{'length_km':>10} {'mode':>16} {'sifted':>8} {'rate':>9} {'qber':>7} {'ratio':>7} {'sent_ratio':>10}")
    for length in args.lengths_km:
        resolved = scenario.resolve(
            {
                "schema_version": scenario.SCHEMA_VERSION,
                "seed": args.seed,
                "simulate": {"num_slots": args.slots},
                "channel": {"length_km": length, "detector_efficiency": 0.8, "mu_weak": 0.5},
            }
        )
        for session in simulate_results(resolved)["sessions"]:
            print(
                f"{length:>10.1f} {session['mode']:>16} {session['sifted_bits']:>8d} "
                f"{session['useful_rate_bits_per_slot']:>9.5f} {session['qber']:>7.4f} "
                f"{_text(session['rate_ratio_vs_baseline']):>7} "
                f"{_text(session['rate_ratio_per_sent_slot_vs_baseline']):>10}"
            )
        print()


if __name__ == "__main__":
    main()
