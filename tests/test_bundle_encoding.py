"""The bundle writer's text is exactly the stdlib's, streamed into its file.

``reporting.write_bundle`` and ``reporting.data_bytes`` promise
``json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)`` (plus a final
newline in the file); the writer never holds the whole text at once.
"""
import json
import math
import os
import stat
import threading
import tracemalloc

import numpy as np
import pytest

from hpqkd import cli, reporting


def stdlib_text(tree) -> str:
    return json.dumps(tree, sort_keys=True, indent=2, allow_nan=False)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "place",
    [lambda x: x, lambda x: [1, 2, x], lambda x: {"a": {"b": [x]}}, lambda x: (True, x)],
    ids=["scalar", "int-list", "nested-dict", "tuple"],
)
def test_non_finite_float_raises_value_error(bad, place):
    with pytest.raises(ValueError):
        stdlib_text(place(bad))
    with pytest.raises(ValueError):
        reporting.data_bytes({"data": place(bad)})


def test_long_haul_simulate_file_is_the_stdlib_text(tmp_path):
    # At 100 km most meso slots erase: each assisted session publishes a mask full of them.
    doc = {
        "schema_version": 1,
        "channel": {"length_km": 100, "dark_count_prob": 1e-5},
        "simulate": {"num_slots": 20000},
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    assert cli.main(["simulate", "--scenario", str(path), "--out", str(out)]) == cli.EXIT_OK
    text = out.read_text(encoding="utf-8")
    bundle = json.loads(text)
    assert text == stdlib_text(bundle) + "\n"
    assisted = [s for s in bundle["data"]["results"]["sessions"] if s["mode"] in ("hybrid", "hybrid_parallel")]
    assert len(assisted) == 2
    for session in assisted:
        mask = bytes.fromhex(session["public_transcript"]["erasure_mask_hex"])
        assert len(mask) == -(-session["slots"] * len(session["per_channel"]) // 8)
        popcount = int(np.unpackbits(np.frombuffer(mask, dtype=np.uint8)).sum())
        assert popcount == session["meso_erasures"] > session["slots"] // 2


def test_write_bundle_streams_a_long_int_list(tmp_path):
    bundle = {"meta": {"tool": "hpqkd"}, "data": {"ints": list(range(100_000))}}
    out = tmp_path / "report.json"
    tracemalloc.start()
    try:
        reporting.write_bundle(bundle, out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = out.stat().st_size
    assert out.read_text(encoding="utf-8") == stdlib_text(bundle) + "\n"
    # The 1.3 MB text is never joined: json.dump writes it a chunk at a time
    # (json.dumps, then one write, peaks near 8 MiB here).
    assert size > 1_000_000
    assert peak < 2 * 2**20


def test_write_bundle_keeps_a_symlinked_out(tmp_path):
    target = tmp_path / "target.json"
    target.write_text("old bundle")
    link = tmp_path / "report.json"
    link.symlink_to(target)
    reporting.write_bundle({"data": [1, 2]}, link)
    assert link.is_symlink()
    assert target.read_text(encoding="utf-8") == stdlib_text({"data": [1, 2]}) + "\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json", "target.json"]


def test_write_bundle_streams_into_a_pipe(tmp_path):
    # A pipe (say --out /dev/stdout) cannot be replaced by a file; the text goes into it.
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    received = []
    reader = threading.Thread(target=lambda: received.append(pipe.read_text(encoding="utf-8")), daemon=True)
    reader.start()
    bundle = {"data": list(range(25_000))}
    reporting.write_bundle(bundle, pipe)
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert received == [stdlib_text(bundle) + "\n"]
    assert stat.S_ISFIFO(os.stat(pipe).st_mode)
