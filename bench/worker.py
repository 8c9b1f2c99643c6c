"""Repeats of a workload in one process: the real CLI, timed and traced.

``run.py`` starts this file with ``src`` on PYTHONPATH and sends it jobs on
standard input, one JSON object a line:

    python3 bench/worker.py < jobs

A job is ``{"commands": [argv, ...], "trace": "probes" | "full", "result":
path, "spans": path | null}``.  Each argv goes to ``hpqkd.cli.main`` in
order; the commands' own output goes to /dev/null.  The worker writes the
job's result to ``result``, then answers with one line, ``done``, on
standard output, and waits for the next job; it ends at end of input.
``probes`` wraps only the three functions the end-to-end metrics need (a
handful of calls per command); ``full`` wraps every public function of the
traced modules.  Wrappers are installed once, so every job of one process
has the same ``trace``.

One unit of reference work (``calibrate.unit``) is timed before the first
command and after each one.  In ``probes`` jobs one more is timed just
before and just after each ``protocol.run_session`` call, outside its span:
a session of a few milliseconds then has the machine's speed of that
moment beside it.  A command's ``wall_s`` leaves out the units timed inside
it, its ``units_s`` lists every unit from the one before it to the one
after it, and its ``cal_s`` is their mean; a session's ``cal_s`` is the
mean of its own two.  ``run.py`` divides timings by these.
"""
from __future__ import annotations

import contextlib
import functools
import gc
import json
import os
import platform
import resource
import sys
import time
import traceback

import calibrate
import tracing


# Hooks run after their span has closed; see tracing.Tracer.wrap.


def _session_hook(tracer, span, args, result):
    config = args["config"]
    span[tracing.TAG] = {"mode": config.mode, "slots": config.num_slots}
    erasures = result.public_transcript.get("erasure_slots", ())
    tracer.add("protocol.erasure_indices", len(erasures))


def _meso_hook(tracer, span, args, result):
    from hpqkd.polarization import DetectionEvent

    is_event_list = isinstance(result, (list, tuple)) and result and isinstance(result[0], DetectionEvent)
    tracer.add("polarization.detection_event_objects", len(result) if is_event_list else 0)


def _expand_hook(tracer, span, args, result):
    tracer.add("keystream.expand_key.bits", len(result))


def _decode_hook(tracer, span, args, result):
    erasure = result.erasure
    tracer.add("keystream.meso_slots", len(erasure))
    tracer.add("keystream.meso_usable_slots", int(len(erasure) - erasure.sum()))


def _write_hook(tracer, span, args, result):
    # The meta timestamp is the one field whose length can differ between two
    # runs of one seed (isoformat drops a zero microsecond part).
    size = os.path.getsize(args["path"]) - len(args["bundle"]["meta"]["timestamp"])
    tracer.add("reporting.bundle_bytes", size)


def _oracle_hook(tracer, span, args, result):
    tracer.add("optics.oracle_samples", int(args["num_samples"]))


def _trials_hook(tracer, span, args, result):
    tracer.add("attacks.trials", int(args["trials"]))


HOOKS = {
    "protocol.run_session": _session_hook,
    "keystream.simulate_meso_transmission": _meso_hook,
    "keystream.expand_key": _expand_hook,
    "keystream.bob_decode": _decode_hook,
    "reporting.write_bundle": _write_hook,
    "optics.sideband_intensities_oracle": _oracle_hook,
    "attacks.estimate_success": _trials_hook,
}

#: The functions timed by an untraced run, for slots/s, s/point and s/spectrum.
PROBES = ("protocol.run_session", "attacks.estimate_success", "optics.sideband_intensities_oracle")

#: Layers reported by busy (inclusive) time, as ``<name>.s``.
BUSY = (
    "keystream.simulate_meso_transmission",
    "keystream.bob_decode",
    "keystream.expand_key",
    "keystream.build_basis_schedule",
    "reporting.make_bundle",
    "reporting.write_bundle",
    "optics.split_upper_probability",
    "optics.sideband_intensities_oracle",
    "optics.sideband_intensities_closed_form",
    "attacks.estimate_success",
    "attacks.brute_force_identify",
    "scenario.load",
    "scenario.build_session_configs",
)
#: Layers reported by call count, as ``<name>.calls``.
CALLS = (
    "optics.split_upper_probability",
    "optics.sideband_intensities_oracle",
    "attacks.brute_force_identify",
)
#: Layers reported by self time, as ``<name>.self_s``.
SELF = (
    "reporting.simulate_results",
    "reporting.attack_sweep_results",
    "reporting.optics_verify_results",
    "cli.main",
)
#: Counters the hooks fill, reported as they are.
COUNTERS = (
    "polarization.detection_event_objects",
    "keystream.expand_key.bits",
    "protocol.erasure_indices",
    "reporting.bundle_bytes",
    "optics.oracle_samples",
    "attacks.trials",
)


def full_targets() -> dict:
    targets = {}
    for module_name in tracing.TRACED_MODULES:
        for func in tracing.public_functions(sys.modules[f"hpqkd.{module_name}"]):
            qualname = f"{module_name}.{func}"
            targets[qualname] = HOOKS.get(qualname)
    return targets


#: Unit times beside each paired session: span index -> [before, after].
_PAIRED: dict[int, list[float]] = {}


def install_pairing(tracer, qualname: str) -> None:
    """Time a reference unit just before and just after each call of the
    (already traced) ``qualname``, outside its span."""

    def make(traced):
        @functools.wraps(traced)
        def paired(*args, **kwargs):
            index = len(tracer.spans)  # the span ``traced`` is about to open
            before = calibrate.time_unit()
            try:
                return traced(*args, **kwargs)
            finally:
                _PAIRED[index] = [before, calibrate.time_unit()]

        return paired

    tracing.replace(qualname, make)


def probe_timings(spans, commands) -> dict:
    """Raw timings behind the end-to-end metrics, each with its ``cal_s``:
    a session's own, or else that of the command it ran in."""
    sessions, sweep, oracle = {}, [], []
    for command in commands:
        first, last = command["spans"]
        cal = command["cal_s"]
        for index in range(first, last):
            span = spans[index]
            name, took = span[tracing.NAME], span[tracing.END] - span[tracing.START]
            if name == "protocol.run_session":
                tag = span[tracing.TAG]
                own = sum(_PAIRED[index]) / 2 if index in _PAIRED else cal
                sessions.setdefault(tag["mode"], []).append({"slots": tag["slots"], "s": took, "cal_s": own})
            elif name == "attacks.estimate_success":
                sweep.append({"s": took, "cal_s": cal})
            elif name == "optics.sideband_intensities_oracle":
                oracle.append({"s": took, "cal_s": cal})
    return {"sessions": sessions, "sweep_point_s": sweep, "oracle_spectrum_s": oracle}


def layer_metrics(tracer, command_wall_s: float) -> dict:
    """Per-layer metrics of one fully traced repeat."""
    from hpqkd.protocol import MODES

    spans = tracer.spans
    table = tracing.aggregate(spans)
    own = tracing.self_times(spans)
    row = lambda name: table.get(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})  # noqa: E731

    out = {f"{name}.s": row(name)["busy_s"] for name in BUSY}
    out.update({f"{name}.calls": row(name)["calls"] for name in CALLS})
    out.update({f"{name}.self_s": row(name)["self_s"] for name in SELF})
    out.update({name: tracer.counts.get(name, 0) for name in COUNTERS})
    slots = tracer.counts.get("keystream.meso_slots", 0)
    usable = tracer.counts.get("keystream.meso_usable_slots", 0)
    out["keystream.meso_usable_fraction"] = usable / slots if slots else 0.0

    session_self = dict.fromkeys(MODES, 0.0)
    companion_runs, companion_s = 0, 0.0
    for index, span in enumerate(spans):
        name = span[tracing.NAME]
        if name == "protocol.run_session":
            session_self[span[tracing.TAG]["mode"]] += own[index]
        elif name == "protocol.run_baseline_bb84":
            session = tracing.nearest_ancestor(spans, index, "protocol.run_session")
            if session >= 0 and spans[session][tracing.TAG]["mode"] != "baseline_bb84":
                companion_runs += 1
                companion_s += span[tracing.END] - span[tracing.START]
    out.update({f"protocol.run_session.self_s.{mode}": session_self[mode] for mode in MODES})
    out["protocol.companion_runs"] = companion_runs
    out["protocol.companion_s"] = companion_s

    for module in tracing.TRACED_MODULES:
        out[f"{module}.self_s"] = sum(
            t for span, t in zip(spans, own) if span[tracing.NAME].startswith(module + ".")
        )
    root_s = sum(span[tracing.END] - span[tracing.START] for span in spans if span[tracing.PARENT] < 0)
    out["trace.self_sum_s"] = sum(own)
    out["trace.min_self_s"] = min(own, default=0.0)
    out["trace.unattributed_s"] = command_wall_s - root_s
    out["trace.spans"] = len(spans)
    return out


#: Thread-count getters of the OpenBLAS builds numpy wheels bundle.
OPENBLAS_THREAD_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def blas_info() -> dict:
    """The OpenBLAS thread count numpy runs with, when numpy bundles OpenBLAS."""
    import ctypes
    import glob

    import numpy

    names = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    env = {name: os.environ[name] for name in names if name in os.environ}
    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in OPENBLAS_THREAD_GETTERS:
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return {"library": os.path.basename(path), "threads": getter(), "env": env}
    return {"library": None, "threads": None, "env": env}


#: The process's tracer and the ``trace`` kind its wrappers were installed for.
_INSTALLED: dict = {}


def run_job(job: dict) -> dict:
    import numpy

    import hpqkd
    from hpqkd import cli

    full = job["trace"] == "full"
    if not _INSTALLED:
        tracer = tracing.Tracer()
        if full:
            tracer.install(full_targets())
        else:
            tracer.install({name: HOOKS[name] for name in PROBES})
            install_pairing(tracer, "protocol.run_session")
        _INSTALLED.update(tracer=tracer, trace=job["trace"])
    if _INSTALLED["trace"] != job["trace"]:
        raise ValueError(f"this worker traces {_INSTALLED['trace']!r}, not {job['trace']!r}")
    tracer = _INSTALLED["tracer"]
    tracer.reset()
    _PAIRED.clear()

    commands = []
    # Every repeat starts from the same collector state, so the cyclic
    # collections inside it fall at the same points in every repeat.
    gc.collect()
    calibrate.unit()  # warm-up: first numpy calls, allocator growth
    cal_before = calibrate.time_unit()
    for argv in job["commands"]:
        first = len(tracer.spans)
        start = time.perf_counter()
        try:
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                code = cli.main(argv)
        except Exception:  # noqa: BLE001 - record the failure, keep measuring
            code = traceback.format_exc()
        wall_s = time.perf_counter() - start
        cal_after = calibrate.time_unit()
        inner = [t for index in range(first, len(tracer.spans)) for t in _PAIRED.get(index, ())]
        units = [cal_before, *inner, cal_after]
        commands.append({
            "argv": argv,
            "exit_code": code,
            "wall_s": wall_s - sum(inner),
            "units_s": units,
            "cal_s": sum(units) / len(units),
            "spans": [first, len(tracer.spans)],
        })
        cal_before = cal_after
    # The process's peak so far: from the second job of a worker on, the
    # largest of its jobs' peaks.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    command_s = sum(c["wall_s"] for c in commands)

    result = {
        "commands": commands,
        "command_s": command_s,
        "peak_rss_mb": peak_rss_mb,
        "timings": probe_timings(tracer.spans, commands),
        "layers": layer_metrics(tracer, command_s) if full else None,
        "env": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "hpqkd_version": hpqkd.__version__,
            "hpqkd_file": hpqkd.__file__,
            "blas": blas_info(),
        },
    }
    if full and job.get("spans"):
        with open(job["spans"], "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    return result


def main(argv: list[str]) -> int:
    if argv:
        print(__doc__, file=sys.stderr)
        return 2
    for line in sys.stdin:
        job = json.loads(line)
        result = run_job(job)
        with open(job["result"], "w", encoding="utf-8") as fh:
            json.dump(result, fh)
        sys.stdout.write("done\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
