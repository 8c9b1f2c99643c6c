"""The bundle writer's text is exactly the stdlib's, written in pieces.

``reporting.write_bundle`` and ``reporting.data_bytes`` promise
``json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)`` (plus a final
newline in the file) without running the stdlib's pure-Python indented
encoder or holding the whole text at once.
"""
import json
import math
import os
import stat
import threading
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpqkd import cli, reporting

BLOCK = reporting._INT_BLOCK


def stdlib_text(tree) -> str:
    return json.dumps(tree, sort_keys=True, indent=2, allow_nan=False)


@st.composite
def int_lists(draw):
    """Int lists at the block edges, sometimes with a bool among the ints."""
    size = draw(st.sampled_from([0, 1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1]))
    rnd = draw(st.randoms(use_true_random=False))
    bound = draw(st.sampled_from([10, 2**31, 2**70]))
    items = [rnd.randrange(-bound, bound) for _ in range(size)]
    if items and draw(st.booleans()):
        items[rnd.randrange(size)] = draw(st.booleans())
    return items


FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 0.0, 5e-324, 1e16, 1e-7, 1.7976931348623157e308, 0.1]
)
TEXT = st.text(st.characters(exclude_categories=()), max_size=8)  # surrogates and control characters
SCALARS = st.none() | st.booleans() | st.integers() | st.integers(-(2**100), 2**100) | FLOATS | TEXT
TREES = st.recursive(
    SCALARS | int_lists(),
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(TEXT, children, max_size=4),
    max_leaves=12,
)


@settings(deadline=None, max_examples=300, database=None)
@given(tree=TREES)
def test_data_bytes_equals_the_stdlib_text(tree):
    assert reporting.data_bytes({"data": tree}) == stdlib_text(tree).encode()


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
    # At 100 km most meso slots erase, so the transcripts span several blocks.
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
    transcripts = [s["public_transcript"] for s in bundle["data"]["results"]["sessions"]]
    assert max(len(t.get("erasure_slots", [])) for t in transcripts) > BLOCK


def test_write_bundle_streams_a_long_int_list(tmp_path):
    bundle = {"meta": {"tool": "hpqkd"}, "data": {"erasure_slots": list(range(400_000))}}
    out = tmp_path / "report.json"
    tracemalloc.start()
    try:
        reporting.write_bundle(bundle, out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = out.stat().st_size
    assert out.read_text(encoding="utf-8") == stdlib_text(bundle) + "\n"
    # The 4.8 MB text is never joined: the writer holds about one block at a time.
    assert size > 4_000_000
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
    bundle = {"data": list(range(3 * BLOCK))}
    reporting.write_bundle(bundle, pipe)
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert received == [stdlib_text(bundle) + "\n"]
    assert stat.S_ISFIFO(os.stat(pipe).st_mode)
