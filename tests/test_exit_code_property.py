"""Property test of the CLI's exit-code promise.

Whatever the scenario holds (wrong types, null, negative values, bools,
empty lists, lists past their length rule, non-finite or huge numbers,
values above the stated caps),
every command ends with exit 0, 2 or 4, prints no traceback, and any
bundle it writes is strict JSON.  Exit 3 (a runtime or I/O failure) is
refused: every bundle goes to a fresh temporary directory, so a generated
document that exits 3 has slipped past the scenario checks.  The hand-written
I/O cases in ``test_scenario_cli.py`` cover exit 3.  Valid sizes stay tiny, so
no example allocates a large session, sweep or oracle grid.
"""
import contextlib
import io
import json
import os
import tempfile
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from hpqkd import cli, scenario
from hpqkd.protocol import MODES

#: Every command's work kept to milliseconds when the document is valid.
BASE = {
    "simulate": {"num_slots": 300},
    "attack_sweep": {
        "m_bases": 8,
        "alpha_sq_over_m_grid": [0.5, 4.0],
        "trials": 100,
        "pns_mc_trials": 500,
    },
    "optics_verify": {"sweep_points": 4, "num_samples": 1024, "cross_sweep_points": 2},
}

#: Values wrong for (nearly) every key.  No huge int here: a huge trial or
#: sample count would be valid and slow.
WRONG = st.sampled_from([None, True, False, "x", [], [None], {}, -1, -0.5, 0.5, 256.0])
NUMBER = st.floats()  # NaN and infinities included; load() must refuse them


def _above(cap: int):
    return st.just(cap + 1) | st.integers(cap + 1, 2**80)


def _too_long(entries, cap: int):
    """Lists just past a length cap; they must be refused before any work."""
    return st.lists(entries, min_size=cap + 1, max_size=cap + 2)


def _repeated(choices):
    """Lists of choices that name one of them twice."""
    return st.lists(st.sampled_from(choices), min_size=1, max_size=3).map(lambda items: items + items[:1])


#: Per key, values around its rule; keys not named here take NUMBER.
VALUES = {
    "schema_version": st.sampled_from([1, 1.0, 2, "1"]),
    "seed": st.integers(-3, 2**64 + 3),
    "simulate.modes": st.lists(st.sampled_from(MODES + ("bogus",)), max_size=5) | _repeated(MODES),
    "simulate.num_slots": st.integers(-3, 2000) | _above(scenario.MAX_NUM_SLOTS) | st.just(1e14),
    "simulate.seed_key_hex": st.none()
    | st.text("0123456789abcdefz ", max_size=40)
    | st.text("0123456789abcdef", min_size=124, max_size=132),
    "channel.m_bases": st.integers(-3, 300) | st.builds(lambda k: 2**k, st.integers(0, 70)),
    "attack_sweep.m_bases": st.integers(-3, 16) | _above(scenario.MAX_ATTACK_M_BASES),
    "attack_sweep.alpha_sq_over_m_grid": st.lists(NUMBER, max_size=6)
    | _too_long(st.just(0.5), scenario.MAX_GRID_POINTS),
    "attack_sweep.trials": st.integers(-3, 200) | _above(scenario.MAX_ATTACK_TRIALS),
    "attack_sweep.pns_mu": st.lists(NUMBER, max_size=4) | _too_long(st.just(0.1), scenario.MAX_PNS_MU),
    "attack_sweep.pns_thresholds": st.lists(st.integers(-1, 5), max_size=4) | _repeated([2, 3]),
    "attack_sweep.pns_mc_trials": st.integers(-3, 1000),
    "optics_verify.sweep_points": st.integers(-3, 6),
    "optics_verify.num_samples": st.integers(-3, 2048),
    "optics_verify.cross_sweep_points": st.integers(-3, 6),
}
PATHS = [
    f"{section}.{name}" if section else name
    for section, keys in scenario.SCHEMA.items()
    for name in keys
]


@st.composite
def documents(draw):
    doc = {"schema_version": 1, **json.loads(json.dumps(BASE))}
    for path in draw(st.lists(st.sampled_from(PATHS), max_size=3, unique=True)):
        value = draw(VALUES.get(path, NUMBER) | WRONG)
        section, _, name = path.rpartition(".")
        (doc.setdefault(section, {}) if section else doc)[name] = value
    shape = draw(st.sampled_from(["keys", "keys", "keys", "section", "unknown", "array"]))
    if shape == "section":
        doc[draw(st.sampled_from(sorted(BASE)))] = draw(WRONG)
    elif shape == "unknown":
        doc["mystery"] = 1
    elif shape == "array":
        doc = [doc]
    return doc


def _options(command):
    options = {
        "--seed": st.integers(-3, 2**64 + 3),
        "--trials": st.integers(-3, 200) | _above(scenario.MAX_ATTACK_TRIALS),
    }
    if command == "attack-sweep":
        options["--workers"] = st.integers(-3, 1)  # never a real pool
    return st.lists(st.sampled_from(sorted(options)), max_size=2, unique=True).flatmap(
        lambda names: st.tuples(*[options[name].map(lambda v, n=name: [n, str(v)]) for name in names])
    )


def _reject_constant(name):
    raise ValueError(f"bundle holds the non-JSON constant {name}")


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(
    command=st.sampled_from(["simulate", "attack-sweep", "optics-verify"]),
    doc=documents(),
    data=st.data(),
)
def test_every_scenario_keeps_the_exit_code_promise(command, doc, data):
    argv = [item for pair in data.draw(_options(command)) for item in pair]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scenario.json")
        out = os.path.join(tmp, "report.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)  # NaN and Infinity are written as such
        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("ignore")
            code = cli.main([command, "--scenario", path, "--out", out, *argv])
        assert code in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_CHECK_FAILED), (code, err.getvalue()[-500:])
        assert "Traceback" not in err.getvalue()
        if code == cli.EXIT_CONFIG:
            assert "scenario error" in err.getvalue()
            assert not os.path.exists(out)
        if os.path.exists(out):
            with open(out, encoding="utf-8") as fh:
                json.load(fh, parse_constant=_reject_constant)
