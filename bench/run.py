#!/usr/bin/env python3
"""Layered benchmark for hpqkd: end-to-end metrics, or per-layer metrics with --trace 1.

    python3 bench/run.py --workload sim-ideal --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from its
``src`` directory.  One client runs one command at a time (a closed loop):
each repeat passes the workload's three commands to ``hpqkd.cli.main`` in
turn, in a worker process (one for all the repeats of an untraced run, a
fresh one for each repeat of a traced run).  Repeats continue for
``--seconds`` (at least three untraced ones, the first a warm-up that is
not timed, or two traced and one untraced with ``--trace 1``), and every
repeat's bundles are checked before the next repeat starts.  Timings are
reported at a fixed reference speed of the machine (see calibrate.py).
Lines for people come first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full record (environment, scenario, raw timings, checks)
goes to ``.bench_out/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import checks
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent

MODES = ("baseline_bb84", "hybrid", "parallel", "hybrid_parallel")

END_TO_END = {
    "setup_s": "s",
    "command_s": "s",
    **{f"slots_per_s.{mode}": "1/s" for mode in MODES},
    "sweep_point_s": "s",
    "oracle_spectrum_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "keystream.simulate_meso_transmission.s": "s",
    "keystream.bob_decode.s": "s",
    "polarization.detection_event_objects": "count",
    "keystream.expand_key.s": "s",
    "keystream.expand_key.bits": "bits",
    "keystream.build_basis_schedule.s": "s",
    "keystream.meso_usable_fraction": "fraction",
    **{f"protocol.run_session.self_s.{mode}": "s" for mode in MODES},
    "protocol.companion_runs": "count",
    "protocol.companion_s": "s",
    "protocol.erasure_indices": "count",
    "reporting.make_bundle.s": "s",
    "reporting.write_bundle.s": "s",
    "reporting.bundle_bytes": "bytes",
    "reporting.simulate_results.self_s": "s",
    "reporting.attack_sweep_results.self_s": "s",
    "reporting.optics_verify_results.self_s": "s",
    "optics.split_upper_probability.s": "s",
    "optics.split_upper_probability.calls": "count",
    "optics.sideband_intensities_oracle.s": "s",
    "optics.sideband_intensities_oracle.calls": "count",
    "optics.oracle_samples": "count",
    "optics.sideband_intensities_closed_form.s": "s",
    "attacks.estimate_success.s": "s",
    "attacks.brute_force_identify.s": "s",
    "attacks.brute_force_identify.calls": "count",
    "attacks.trials": "count",
    "scenario.load.s": "s",
    "scenario.build_session_configs.s": "s",
    "cli.main.self_s": "s",
    **{f"{module}.self_s": "s" for module in tracing.TRACED_MODULES},
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}

#: Fresh set-up probe processes timed per untraced run; ``setup_s`` is their median.
SETUP_PROBES = 7

#: Whole-run limit in seconds; a repeat is cut off rather than overrun it.
HARD_LIMIT_S = 170.0


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (no program, or no repeat ran)."""


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="workload seed (u64); the scenario's seed")
    parser.add_argument("--seconds", type=float, required=True, help="measuring time of this run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: report per-layer metrics")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in 64 bits")
    return args


def source_identity(root: Path) -> dict:
    """Git commit when the checkout is a repository, and a digest of ``src`` always."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    sha = None
    if (root / ".git").exists() and shutil.which("git"):
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env, capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def time_setup(root: Path, scenario_path: Path, env: dict) -> dict:
    """Wall time of one fresh set-up probe process, with the mean time of a
    reference unit timed in this process just before and just after it."""
    cal_before = calibrate.time_unit()
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(scenario_path)],
        cwd=root, env=env, capture_output=True, text=True, timeout=60,
    )
    elapsed = time.perf_counter() - start
    cal_after = calibrate.time_unit()
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed:\n{proc.stderr}")
    return {"s": elapsed, "cal_s": (cal_before + cal_after) / 2}


class Worker:
    """A ``worker.py`` process that runs one repeat per request.

    Requests go one at a time: the next is sent only once the last has been
    answered and its bundles checked, so the worker never runs while this
    process works.  ``close`` ends the process and waits for it.
    """

    def __init__(self, root: Path, out: Path, env: dict):
        self.out = out
        self.log = open(out / f"worker-{time.monotonic_ns()}.log", "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "worker.py")],
            cwd=root, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.log,
        )

    def run(self, index: int, trace: str, argvs, timeout: float) -> dict:
        """One repeat; returns its result, or a record of its failure."""
        job = {
            "commands": argvs,
            "trace": trace,
            "result": str(self.out / f"result-{index}.json"),
            "spans": str(self.out / f"spans-{index}.json") if trace == "full" else None,
        }
        try:
            self.proc.stdin.write((json.dumps(job) + "\n").encode())
            self.proc.stdin.flush()
        except OSError as exc:
            return {"trace": trace, "error": f"worker gone: {exc}"}
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        reply = self.proc.stdout.readline() if ready else b""
        if reply != b"done\n":
            self.close(kill=True)
            tail = Path(self.log.name).read_text()[-4000:]
            why = "exceeded {:.0f} s".format(timeout) if not ready else f"exit {self.proc.returncode}"
            return {"trace": trace, "error": f"worker {why}:\n{tail}"}
        result = json.loads(Path(job["result"]).read_text())
        result["trace"] = trace
        return result

    def close(self, kill: bool = False) -> None:
        """End the worker (at once with ``kill``) and wait until it has ended."""
        if kill:
            self.proc.kill()
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.log.close()


class Ledger:
    """Commands and output checks attempted, and the ones that failed."""

    def __init__(self):
        self.entries: list[dict] = []

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        self.entries.append({"check": name, "ok": bool(ok), "detail": detail})
        if not ok:
            print(f"FAILED {name}: {detail}", file=sys.stderr)


def check_repeat(repeat: dict, index: int, out_paths: dict, digests: dict, ledger: Ledger) -> None:
    if "error" in repeat:
        for command in out_paths:
            ledger.record(f"{index}.{command}.exit_code", False, repeat["error"])
        return
    for entry, (command, path) in zip(repeat["commands"], out_paths.items()):
        name = f"{index}.{command}"
        code = entry["exit_code"]
        ledger.record(f"{name}.exit_code", code == 0, str(code))
        if code != 0:
            continue
        try:
            bundle = checks.load_strict(path)
        except ValueError as exc:
            ledger.record(f"{name}.strict_json", False, str(exc))
            continue
        ledger.record(f"{name}.strict_json", True)
        digest = checks.data_digest(bundle)
        if command in digests:
            ledger.record(f"{name}.data_identical", digest == digests[command], digest)
        else:
            digests[command] = digest
        try:
            outcomes = checks.result_checks(command, bundle["data"]["results"])
        except (KeyError, TypeError) as exc:
            outcomes = [("results_layout", False, repr(exc))]
        for check, ok, detail in outcomes:
            ledger.record(f"{name}.{check}", ok, detail)


def check_trace(full: list[dict], ledger: Ledger) -> None:
    """Self times plus unattributed time rebuild the traced command time, and
    counts repeat exactly.

    With no negative self time and ``unattributed_s >= 0`` this is the
    statement that the self times account for the untraced ``command_s`` to
    within the tracing overhead plus ``unattributed_s``.
    """
    for i, repeat in enumerate(full):
        layers = repeat["layers"]
        gap = repeat["command_s"] - layers["trace.self_sum_s"] - layers["trace.unattributed_s"]
        min_self, unattributed = layers["trace.min_self_s"], layers["trace.unattributed_s"]
        ok = abs(gap) < 1e-6 and min_self >= -1e-9 and unattributed >= -1e-9
        ledger.record(f"trace{i}.self_time_accounting", ok, f"gap {gap:.3g} s, min self {min_self:.3g} s")
    if len(full) >= 2:
        exact = [name for name, unit in PER_LAYER.items() if unit != "s" and name in full[0]["layers"]]
        first = full[0]["layers"]
        differing = [name for name in exact if any(r["layers"][name] != first[name] for r in full[1:])]
        ledger.record("trace.counts_repeat_exactly", not differing, ", ".join(differing))


def tail_percentile(samples: list[float]):
    """Highest of p50..p99.9 with at least ten samples beyond it, or None."""
    ordered = sorted(samples)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        rank = math.ceil(round(p * len(ordered)) / 100)  # nearest rank, 1-based
        if rank >= 1 and len(ordered) - rank >= 10:
            return {"p": p, "value": ordered[rank - 1]}
    return None


def summarise(samples: list[float], per_repeat: list[float] | None = None) -> dict:
    """The median of ``samples`` as the headline value, with the sample
    count, any tail percentile and the per-repeat values.

    ``samples`` are the single operations behind a value (one per grid
    point or spectrum) or one value per repeat; ``per_repeat`` defaults to
    them.
    """
    out = {
        "value": statistics.median(samples),
        "per_repeat": samples if per_repeat is None else per_repeat,
        "n_samples": len(samples),
    }
    tail = tail_percentile(samples)
    if tail:
        out["tail"] = tail
    return out


def scaled(sample: dict) -> float:
    """A timing at the reference speed: seconds x REFERENCE_S / cal_s."""
    return sample["s"] * calibrate.REFERENCE_S / sample["cal_s"]


def command_seconds(repeat: dict) -> float:
    """The repeat's command time at the reference speed, command by command."""
    return sum(scaled({"s": c["wall_s"], "cal_s": c["cal_s"]}) for c in repeat["commands"])


def end_to_end(probes: list[dict], setup: list[dict]) -> dict:
    """End-to-end metrics of the untraced repeats: medians of timings at
    the reference speed (see calibrate.py), and the median peak RSS.

    The raw wall-clock medians and the median calibration time stay in
    the record next to each value.
    """
    def raw(values):
        return {"raw_median": statistics.median(values)}

    command = [command_seconds(r) for r in probes]
    details = {
        "setup_s": summarise([scaled(p) for p in setup]) | raw([p["s"] for p in setup]),
        "command_s": summarise(command) | raw([r["command_s"] for r in probes]),
    }
    for mode in MODES:
        runs = [r["timings"]["sessions"][mode] for r in probes]
        rates = [sum(s["slots"] for s in run) / sum(scaled(s) for s in run) for run in runs]
        raw_rates = [sum(s["slots"] for s in run) / sum(s["s"] for s in run) for run in runs]
        details[f"slots_per_s.{mode}"] = summarise(rates) | raw(raw_rates)
    for name in ("sweep_point_s", "oracle_spectrum_s"):
        samples = [r["timings"][name] for r in probes]
        details[name] = summarise(
            [scaled(t) for run in samples for t in run],
            [statistics.fmean(scaled(t) for t in run) for run in samples],
        ) | raw([t["s"] for run in samples for t in run])
    rss = [r["peak_rss_mb"] for r in probes]
    details["peak_rss_mb"] = summarise(rss)
    cal = [u for r in probes for c in r["commands"] for u in c["units_s"]]
    details["calibration"] = {"reference_s": calibrate.REFERENCE_S, "median_s": statistics.median(cal), "n": len(cal)}
    return details


def per_layer(probes: list[dict], full: list[dict]) -> dict:
    values = {}
    for name, unit in PER_LAYER.items():
        if name == "trace.overhead_s":
            # Median against median at the reference speed, as ``command_s`` is reported.
            values[name] = (
                statistics.median(command_seconds(r) for r in full)
                - statistics.median(command_seconds(r) for r in probes)
            )
        elif unit == "s":
            values[name] = statistics.median(r["layers"][name] for r in full)
        else:
            values[name] = full[0]["layers"][name]
    return values


def measure(args, root: Path, out: Path, env: dict, started: float) -> dict:
    raw = workloads.scenario(args.workload, args.seed)
    scenario_text = json.dumps(raw, indent=2, sort_keys=True) + "\n"
    scenario_path = out / "scenario.json"
    scenario_path.write_text(scenario_text)
    out_paths = {c: str(out / f"{c}.json") for c in workloads.COMMANDS}
    argvs = [workloads.command_argv(c, str(scenario_path), p) for c, p in out_paths.items()]

    setup = []
    calibrate.unit()  # warm-up, as in the worker
    # A traced run needs two traced repeats (counts must repeat exactly) and
    # an untraced one between them (the tracing overhead), each in a fresh
    # worker because a worker's wrappers stay installed.  An untraced run
    # sends all its repeats to one worker; the first warms it up (first
    # calls, caches, allocator) and is checked but not timed, and two more
    # are needed (data must repeat byte for byte).
    kinds = ("full", "probes") if args.trace else ("probes",)
    minimum = 3
    ledger, digests, repeats = Ledger(), {}, []
    deadline = time.perf_counter() + args.seconds
    worker = None
    try:
        while True:
            kind = kinds[len(repeats) % len(kinds)]
            begun = time.perf_counter()
            if not args.trace and len(setup) < SETUP_PROBES and len(repeats) % 2 == 0:
                # Spread over the run, so that they see the machine as the repeats do.
                setup.append(time_setup(root, scenario_path, env))
            if worker is None:
                worker = Worker(root, out, env)
            timeout = max(5.0, HARD_LIMIT_S - (begun - started))
            repeat = worker.run(len(repeats), kind, argvs, timeout)
            if args.trace or "error" in repeat:
                worker.close()
                worker = None
            repeats.append(repeat)
            check_repeat(repeat, len(repeats) - 1, out_paths, digests, ledger)
            if "error" in repeat and len(repeats) == 1:
                raise BenchError(f"first repeat failed: {repeat['error']}")
            now = time.perf_counter()
            # Past half the hard limit, stop: one more repeat and its checks must fit.
            if len(repeats) >= minimum and (now + (now - begun) > deadline or now - started > HARD_LIMIT_S / 2):
                break
    finally:
        if worker is not None:
            worker.close()
    while not args.trace and len(setup) < SETUP_PROBES:
        setup.append(time_setup(root, scenario_path, env))

    good = [r for r in repeats if "error" not in r and all(c["exit_code"] == 0 for c in r["commands"])]
    probes = [r for r in good if r["trace"] == "probes" and not (r is repeats[0] and not args.trace)]
    full = [r for r in good if r["trace"] == "full"]
    if not probes or (args.trace and not full):
        raise BenchError("no repeat completed; see the failures above")
    wrong = {r["env"]["hpqkd_file"] for r in good} - {str(root / "src" / "hpqkd" / "__init__.py")}
    if wrong:
        raise BenchError(f"hpqkd was imported from outside this checkout: {sorted(wrong)}")
    if args.trace:
        check_trace(full, ledger)
        values = per_layer(probes, full)
        metrics = {name: {"value": value, "unit": PER_LAYER[name]} for name, value in values.items()}
        details = None
    else:
        details = end_to_end(probes, setup)
        metrics = {name: {"value": details[name]["value"], "unit": unit} for name, unit in END_TO_END.items()}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": {
            **source_identity(root),
            **good[0]["env"],
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
        },
        "scenario_json": scenario_text,
        "commands": argvs,
        "repeats": [{k: v for k, v in r.items() if k != "env"} for r in repeats],
        "details": details,
        "checks": ledger.entries,
        "metrics": metrics,
    }
    (out / "record.json").write_text(json.dumps(record, indent=2))
    return record


def report(record: dict) -> None:
    env = record["environment"]
    print(
        f"hpqkd bench: workload {record['workload']}, seed {record['seed']}, trace {record['trace']}; "
        f"{len(record['repeats'])} repeats; git {env['git_sha']}, src {env['src_sha256'][:12]}; "
        f"python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, "
        f"blas threads {env['blas']['threads']}"
    )
    for name, metric in record["metrics"].items():
        extra = ""
        if record["details"]:
            detail = record["details"][name]
            extra = f"  (median of {detail['n_samples']}"
            if "raw_median" in detail:
                extra += f"; wall-clock median {detail['raw_median']:.6g}"
            if "tail" in detail:
                extra += f"; p{detail['tail']['p']:g} {detail['tail']['value']:.6g}"
            extra += ")"
        print(f"  {name:45s} {metric['value']:.6g} {metric['unit']}{extra}")
    if record["details"]:
        cal = record["details"]["calibration"]
        print(
            f"  timings at the reference speed: median calibration unit {cal['median_s']:.6g} s "
            f"(reference {cal['reference_s']:g} s, {cal['n']} units)"
        )
    attempted = len(record["checks"])
    failed = sum(not c["ok"] for c in record["checks"])
    print(f"  ops_failed_frac {failed / attempted:.6g} ({failed} of {attempted} commands and checks)")


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.perf_counter()
    root = Path.cwd().resolve()
    if not (root / "src" / "hpqkd" / "__init__.py").is_file():
        print("hpqkd bench: no src/hpqkd here; run from the root of a source checkout", file=sys.stderr)
        return 2
    out = root / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    # One BLAS thread: the benchmark is one client in one process, and on a
    # small shared machine a second BLAS thread mostly adds timing noise.
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    try:
        record = measure(args, root, out, env, started)
    except BenchError as exc:
        print(f"hpqkd bench: {exc}", file=sys.stderr)
        return 3
    report(record)
    print(f"  record: {out / 'record.json'}")
    attempted = len(record["checks"])
    failed = sum(not c["ok"] for c in record["checks"])
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": record["metrics"]}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
