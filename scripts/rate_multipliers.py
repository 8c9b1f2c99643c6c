#!/usr/bin/env python3
"""Useful-bit-rate multipliers of the four session modes across link losses.

The keystream-assisted modes remove sifting (x2) and the two-tone composition
doubles again (x4); both multipliers are loss-independent, which this sweep
makes visible.  Each row is one ``simulate`` scenario, so the ratio is the
one the report bundles carry ("n/a" where the baseline rate is 0).
"""
import argparse

from hpqkd import scenario
from hpqkd.reporting import simulate_results


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--slots", type=int, default=20000)
    parser.add_argument("--seed", type=int, default=20260809)
    parser.add_argument(
        "--lengths-km", type=float, nargs="+", default=[0.0, 10.0, 25.0, 50.0]
    )
    args = parser.parse_args()

    print(f"{'length_km':>10} {'mode':>16} {'sifted':>8} {'rate':>9} {'qber':>7} {'ratio':>7}")
    for length in args.lengths_km:
        resolved = scenario.resolve(
            {
                "schema_version": scenario.SCHEMA_VERSION,
                "seed": args.seed,
                "simulate": {"num_slots": args.slots},
                "channel": {"length_km": length, "detector_efficiency": 0.8, "mu_weak": 0.5},
            }
        )
        for row in simulate_results(resolved)["rates_table"]:
            ratio = row["rate_ratio_vs_baseline"]
            ratio_text = f"{ratio:.3f}" if ratio is not None else "n/a"
            print(
                f"{length:>10.1f} {row['mode']:>16} {row['sifted_bits']:>8d} "
                f"{row['useful_rate_bits_per_slot']:>9.5f} {row['qber']:>7.4f} {ratio_text:>7}"
            )
        print()


if __name__ == "__main__":
    main()
