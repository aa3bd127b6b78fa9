"""Exactness of the one-dump ``canonical_json`` and of byte-level checksum reads.

``canonical_json`` returns a single ``json.dumps`` when that text already
is canonical, and otherwise rebuilds the value with ``_canon``.  The
property here: for any value — ``-0.0``, non-``str`` keys whose text
order differs from their natural order, tuples, non-dict mappings,
non-finite floats, sets, numpy scalars — the result (or the exception
type) is exactly what the ``_canon`` path alone gives.

Reads verify a journal line or a snapshot with one hash over its raw
bytes and fall back to re-canonicalizing the parsed document on a miss;
the second half checks that the fallback still accepts legacy ``-0.0``
files and that a damaged payload is still rejected.
"""

from __future__ import annotations

import json
import math
from collections import OrderedDict
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SnapshotError
from repro.experiments.exec.task import _canon, canonical_json, plain_json
from repro.service import Journal, load_snapshot, record_checksum, write_snapshot
from repro.service.snapshot import _snapshot_checksum


def reference(value):
    """The canonical text the ``_canon`` rebuild alone produces."""
    return json.dumps(_canon(value), sort_keys=True, separators=(",", ":"), allow_nan=False)


def outcome(fn, value):
    try:
        return ("ok", fn(value))
    except Exception as exc:  # the exception *type* is part of the contract
        return ("raises", type(exc))


scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),  # NaN and +-inf included
    st.just(-0.0),
    st.just(0.0),
    st.text(max_size=6),
    st.sampled_from(["-0.0", "x-0.0,", "-0.05", "[-0.0]"]),
    st.just(np.int64(3)),
    st.just(np.float64(-0.0)),
    st.sets(st.integers(), max_size=2),
)
keys = st.one_of(
    st.text(max_size=4),
    st.sampled_from(["-0.0", "2", "10", "True"]),
    st.integers(),
    st.sampled_from([2, 10]),
    st.booleans(),
    st.none(),
    st.floats(),
)
trees = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), children, max_size=4),
        st.dictionaries(keys, children, max_size=4),
        st.dictionaries(st.text(max_size=4), children, max_size=4).map(MappingProxyType),
        st.dictionaries(keys, children, max_size=4).map(OrderedDict),
    ),
    max_leaves=20,
)


class TestCanonicalJsonExactness:
    @settings(max_examples=600, deadline=None)
    @given(trees)
    def test_same_text_or_same_exception_type(self, value):
        assert outcome(canonical_json, value) == outcome(reference, value)

    @pytest.mark.parametrize(
        "value",
        [
            {2: "a", 10: "b"},  # text order "10" < "2" differs from 2 < 10
            {True: 1, "x": 2},
            {None: 1},
            {1.5: [1, 2]},
            {"a": -0.0},
            [0.5, -0.0],
            {"a": {"b": (1, -0.0)}},
            np.float64(-0.0),
            MappingProxyType({"b": 1, "a": 2}),
            OrderedDict([("b", 1), ("a", 2)]),
            float("nan"),
            {"x": float("inf")},
            {1, 2},
            np.int64(3),
            [{"deep": [{2: 1}]}],
        ],
    )
    def test_edge_cases(self, value):
        assert outcome(canonical_json, value) == outcome(reference, value)
        if outcome(reference, value)[0] == "raises":
            assert plain_json(value) is None

    def test_plain_values_take_the_one_dump(self):
        value = {"b": [1, 2.5, None, True, "-0.05"], "a": {"x": (0.0, -1.25)}}
        assert plain_json(value) == reference(value)

    def test_non_canonical_values_are_refused(self):
        for value in ({"a": -0.0}, {2: 1, 10: 2}, {True: 1}, OrderedDict(a=1)):
            assert plain_json(value) is None


def legacy_line(seq, t, event, data):
    """A record line as the journal has always written it."""
    doc = {
        "data": data,
        "event": event,
        "seq": seq,
        "sha": record_checksum(seq, t, event, data),
        "t": t,
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


class TestByteVerifiedReads:
    def test_append_writes_the_legacy_line(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with Journal(path, sync=False) as journal:
            journal.append("open", 0.0, {"schema": 1})
            journal.append("submit", 1.5, {"x": -0.0, "ids": [2, 10]})
            journal.append("advance", -0.0, {})
            journal.append("submit", 2.5, {"by_id": {2: "a", 10: "b"}})
        want = (
            legacy_line(0, 0.0, "open", {"schema": 1})
            + legacy_line(1, 1.5, "submit", {"x": -0.0, "ids": [2, 10]})
            + legacy_line(2, -0.0, "advance", {})
            + legacy_line(3, 2.5, "submit", {"by_id": {2: "a", 10: "b"}})
        )
        assert path.read_text(encoding="utf-8") == want

    def test_negative_zero_line_is_accepted(self, tmp_path):
        path = tmp_path / "j.jsonl"
        line = legacy_line(0, 2.0, "submit", {"x": -0.0})
        assert '"x":-0.0' in line  # written with -0.0 ...
        assert record_checksum(0, 2.0, "submit", {"x": 0.0}) in line  # ... hashed as 0.0
        path.write_text(line, encoding="utf-8")
        read = Journal.read(path)
        assert not read.torn and len(read.records) == 1
        assert math.copysign(1.0, read.records[0]["data"]["x"]) == -1.0
        assert read.lines == [line.rstrip("\n").encode("utf-8")]

    def test_one_byte_payload_flip_is_torn(self, tmp_path):
        path = tmp_path / "j.jsonl"
        good = legacy_line(0, 0.0, "open", {})
        bad = legacy_line(1, 3.0, "submit", {"demand": 125.0, "id": "r1"})
        flipped = bad.replace('"demand":125.0', '"demand":126.0')
        assert flipped != bad
        path.write_text(good + flipped, encoding="utf-8")
        read = Journal.read(path)
        assert read.torn and [r["seq"] for r in read.records] == [0]
        assert read.dropped_bytes == len(flipped)

    def test_snapshot_with_negative_zero_loads(self, tmp_path):
        state = {"clock": -0.0, "rows": [{"v": -0.0}, {"v": 1.5}]}
        path = write_snapshot(tmp_path / "j.jsonl", 7, state)
        raw = path.read_bytes()
        assert b'"clock":-0.0' in raw
        seq, loaded = load_snapshot(path)
        assert seq == 7 and loaded == state
        assert math.copysign(1.0, loaded["clock"]) == -1.0

    def test_snapshot_file_is_the_legacy_document(self, tmp_path):
        state = {"b": [1, 2.5], "a": {"k": "v"}}
        path = write_snapshot(tmp_path / "j.jsonl", 3, state)
        doc = {"schema": 2, "seq": 3, "state": state}
        doc["sha"] = _snapshot_checksum(doc)
        want = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
        assert path.read_text(encoding="utf-8") == want

    @pytest.mark.parametrize("state", [{"x": 125.0}, {"x": -0.0, "y": 125.0}])
    def test_snapshot_one_byte_payload_flip_is_rejected(self, tmp_path, state):
        path = write_snapshot(tmp_path / "j.jsonl", 5, state)
        raw = path.read_bytes()
        path.write_bytes(raw.replace(b"125.0", b"126.0"))
        with pytest.raises(SnapshotError, match="checksum"):
            load_snapshot(path)
