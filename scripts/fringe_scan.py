#!/usr/bin/env python3
"""Closed-form vs oracle sideband fringes and the fitted fringe prefactor.

Scans the channel-1 phase difference, prints both intensity laws side by
side, and the fit of A*cos^2(dphi/2) to the oracle points that settles the
fringe amplitude (A = e0^2*m1^2/8 at matched depths m1 = 2*m3).  Each run is
one ``optics-verify`` scenario, so these are the rows its bundle carries.
"""
import argparse

from hpqkd import scenario
from hpqkd.reporting import optics_verify_results


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--points", type=int, default=24)
    parser.add_argument("--m1", type=float, default=0.1)
    parser.add_argument("--m3", type=float, default=0.05)
    args = parser.parse_args()

    doc = {"plan": {"m1": args.m1, "m3": args.m3}, "optics_verify": {"sweep_points": args.points}}
    try:
        results, _ = optics_verify_results(scenario.resolve({"schema_version": scenario.SCHEMA_VERSION, **doc}))
    except scenario.ScenarioError as exc:
        parser.error(str(exc))

    print(f"{'dphi1':>8} {'closed_up':>11} {'oracle_up':>11} {'closed_lo':>11} {'oracle_lo':>11}")
    for row in results["fringe_sweeps"]["channel1"]["rows"]:
        print(
            f"{row['delta_phi']:>8.4f} {row['closed_upper']:>11.4e} {row['oracle_upper']:>11.4e} "
            f"{row['closed_lower']:>11.4e} {row['oracle_lower']:>11.4e}"
        )

    prefactor = results["prefactor"]
    residual = results["fits"]["channel1"]["upper_max_residual"]
    print(f"\nfitted A = {prefactor['fitted_amplitude']:.6e}  (max residual {residual:.3%})")
    if prefactor["measured_over_e0sq_m1sq"] is not None:  # None when m1 = 0
        print(f"A / (e0^2*m1^2) = {prefactor['measured_over_e0sq_m1sq']:.6e}")
        for name, candidate in prefactor["candidates"].items():
            print(f"{name:<13} = {candidate['value']:.6e}   delta {candidate['distance']:.2e}")
    print(f"confirmed: {prefactor['confirmed']}")


if __name__ == "__main__":
    main()
