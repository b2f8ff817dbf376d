"""Restart after a killed writer: only the torn row may be lost.

Every append-only JSONL file the system keeps (persistent cache, design
archive, campaign event log, span log) is exercised the same way: write
rows, cut the file mid-row as a killed writer would, open a fresh instance,
append one row, then reload. The rows written before the tear and the row
written after the restart must all be there.
"""

import json

import pytest

from repro.archive import DesignArchive
from repro.core import (
    CappedJsonlTraceSink,
    DesignSpace,
    IntParam,
    JsonlTraceSink,
    RunEvent,
    maximize,
)
from repro.core.evalstack import PersistentCache
from repro.service.campaign import CampaignSpec
from repro.service.store import CampaignStore

FP = "fp-restart"


@pytest.fixture
def space():
    return DesignSpace("rst", [IntParam("a", 0, 7)])


def cut(path, keep):
    """Truncate ``path`` to its first ``keep`` bytes (negative: drop bytes)."""
    data = path.read_bytes()
    path.write_bytes(data[:keep])


def only_jsonl(root):
    (path,) = root.glob("*.jsonl")
    return path


def parsed_lines(path):
    """Every line that parses, read independently of the code under test."""
    rows = []
    for line in path.read_text(encoding="utf-8").splitlines():
        try:
            rows.append(json.loads(line))
        except ValueError:
            continue
    return rows


def put(cache, space, a):
    cache.put_many([(space.genome({"a": a}), {"m": float(a)})], FP)


def record(archive, space, a):
    archive.record(space.genome({"a": a}), {"m": float(a)}, FP, campaign="c1")


class TestPersistentCache:
    def test_row_after_torn_row_survives(self, tmp_path, space):
        cache = PersistentCache(tmp_path)
        put(cache, space, 1)
        put(cache, space, 2)
        cut(only_jsonl(tmp_path), -10)
        put(PersistentCache(tmp_path), space, 3)
        reloaded = PersistentCache(tmp_path)
        assert reloaded.entries(space, FP) == 2
        assert reloaded.get(space.genome({"a": 1}), FP) == (True, {"m": 1.0})
        assert reloaded.get(space.genome({"a": 2}), FP) == (False, None)
        assert reloaded.get(space.genome({"a": 3}), FP) == (True, {"m": 3.0})

    def test_row_after_torn_header_survives(self, tmp_path, space):
        put(PersistentCache(tmp_path), space, 1)
        cut(only_jsonl(tmp_path), 10)  # the writer died inside the header
        put(PersistentCache(tmp_path), space, 3)
        reloaded = PersistentCache(tmp_path)
        assert reloaded.entries(space, FP) == 1
        assert reloaded.get(space.genome({"a": 3}), FP) == (True, {"m": 3.0})


class TestDesignArchive:
    def test_row_after_torn_row_survives(self, tmp_path, space):
        archive = DesignArchive(tmp_path)
        record(archive, space, 1)
        record(archive, space, 2)
        cut(only_jsonl(tmp_path), -10)
        record(DesignArchive(tmp_path), space, 3)
        reloaded = DesignArchive(tmp_path)
        assert reloaded.entries(space, FP) == 2
        assert sorted(
            row["config"]["a"] for row in reloaded.top_k(space, FP, maximize("m"))
        ) == [1, 3]

    def test_row_after_torn_header_survives(self, tmp_path, space):
        record(DesignArchive(tmp_path), space, 1)
        cut(only_jsonl(tmp_path), 10)
        record(DesignArchive(tmp_path), space, 3)
        assert DesignArchive(tmp_path).entries(space, FP) == 1


def _event(seq):
    return RunEvent(seq, "generation-end", seq, {"best": float(seq)})


@pytest.mark.parametrize(
    "make_sink",
    [JsonlTraceSink, lambda path: CappedJsonlTraceSink(path, max_events=1000)],
    ids=["jsonl", "capped"],
)
def test_trace_sink_event_after_torn_event_survives(tmp_path, make_sink):
    path = tmp_path / "events.jsonl"
    sink = make_sink(path)
    for seq in range(3):
        sink.emit(_event(seq))
    sink.close()
    cut(path, -5)
    sink = make_sink(path)
    sink.emit(_event(3))
    sink.close()
    assert [row["seq"] for row in parsed_lines(path)] == [0, 1, 3]


def test_span_after_torn_span_survives(tmp_path):
    store = CampaignStore(tmp_path)
    campaign = store.create(CampaignSpec(query="noc-frequency"))
    store.append_spans(campaign.id, [{"name": "a"}, {"name": "b"}])
    cut(store.spans_path(campaign.id), -4)
    CampaignStore(tmp_path).append_spans(campaign.id, [{"name": "c"}])
    spans = CampaignStore(tmp_path).load_spans(campaign.id)
    assert [span["name"] for span in spans] == ["a", "c"]
