"""Command-line front end: scenario-driven simulation, sweeps, and checks.

Exit codes: 0 success, 2 scenario/configuration error, 3 runtime failure,
4 check failure in verify mode.
"""
from __future__ import annotations

import argparse
import sys

from . import reporting, scenario

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_CHECK_FAILED = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hpqkd",
        description=(
            "Simulator for sideband-interference key distribution with a "
            "keystream-driven mesoscopic polarization channel."
        ),
        epilog="Scenario keys (JSON):\n" + scenario.describe_keys(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "simulate": "run the configured session modes and report rates",
        "attack-sweep": "sweep the brute-force attack and multi-photon tails",
        "optics-verify": "validate fringe laws against the time-domain oracle",
    }
    for name, help_text in specs.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--scenario", required=True, help="path to the scenario JSON file")
        cmd.add_argument("--out", help="write the report bundle (JSON) here")
        cmd.add_argument("--seed", type=int, help="override the scenario key seed")
        cmd.add_argument("--trials", type=int, help="override the scenario key attack_sweep.trials")
        cmd.add_argument(
            "--csv",
            action="store_true",
            help="also write the tables as CSV files next to --out",
        )
        if name == "attack-sweep":
            cmd.add_argument(
                "--workers",
                type=int,
                default=1,
                help="processes for sweep points, at most one per point and CPU (results identical to serial)",
            )
    return parser


def _summary_line(command: str, results: dict) -> str:
    if command == "simulate":
        parts = []
        for row in results["rates_table"]:
            ratio = row["rate_ratio_vs_baseline"]
            ratio_text = f"{ratio:.3f}" if ratio is not None else "n/a"
            parts.append(
                f"{row['mode']}: rate={row['useful_rate_bits_per_slot']:.4f} "
                f"qber={row['qber']:.4f} ratio={ratio_text}"
            )
        return " | ".join(parts)
    if command == "attack-sweep":
        table = results["brute_force_table"]
        return (
            f"{len(table)} sweep points, success {table[0]['success_rate']:.3f} -> "
            f"{table[-1]['success_rate']:.3f}, monotone={results['monotone_within_2_stderr']}"
        )
    fits = results["fits"]
    return (
        f"tuned={results['tuned']} "
        f"res_ch1={fits['channel1']['upper_max_residual']:.4%} "
        f"res_ch2={fits['channel2']['upper_max_residual']:.4%} "
        f"prefactor={results['prefactor']['confirmed']}"
    )


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.csv and not args.out:
        parser.error("--csv needs --out: the CSV files are written next to the bundle")

    try:
        overrides = {"seed": args.seed, "attack_sweep.trials": args.trials}
        raw, resolved = scenario.load(args.scenario, {k: v for k, v in overrides.items() if v is not None})
    except scenario.ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    checks_passed = True
    try:
        if args.command == "simulate":
            results = reporting.simulate_results(resolved)
        elif args.command == "attack-sweep":
            results = reporting.attack_sweep_results(resolved, workers=args.workers)
        else:
            results, checks_passed = reporting.optics_verify_results(resolved)
    except scenario.ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - boundary between library and shell
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME

    bundle = reporting.make_bundle(args.command, raw, resolved, results)
    if args.out:
        try:
            written = reporting.write_outputs(bundle, args.out, args.csv)
        except (OSError, ValueError) as exc:  # an unwritable path, a NaN in the results
            print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
            return EXIT_RUNTIME
        for path in written:
            print(f"wrote {path}")
    print(_summary_line(args.command, results))

    if not checks_passed:
        print("optics checks FAILED (see bundle for residuals)", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
