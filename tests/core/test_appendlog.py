"""Tests for the JSONL append log shared by every on-disk log."""

import json
import os

from hypothesis import given, settings, strategies as st

from repro.core.appendlog import AppendLog, atomic_write, read_header, scan

HEADER = {"space": "s", "params": ["a", "b"], "fingerprint": "fp"}

_rows = st.lists(
    st.dictionaries(
        st.text(max_size=3),
        st.none() | st.integers() | st.text(max_size=4),
        max_size=3,
    ),
    max_size=4,
)


# --- crash injection ---------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(
    before=_rows.filter(bool),
    after=_rows.filter(bool),
    headered=st.booleans(),
)
def test_truncation_at_every_offset_loses_only_the_torn_row(
    before, after, headered, tmp_path_factory
):
    """Cut a log at every byte, append after the "restart", scan it back.

    What comes back is exactly the rows whose JSON was complete before the
    cut, then every row appended after it; a headered log always reads
    back its header.
    """
    header = HEADER if headered else None
    path = tmp_path_factory.mktemp("log") / "log.jsonl"
    with AppendLog(path, header) as log:
        log.append(before)
    data = path.read_bytes()
    lines = [header] if headered else []
    lines.extend(before)
    ends = []  # byte offset where each line's JSON text ends
    position = 0
    for line in lines:
        position += len(json.dumps(line))
        ends.append(position)
        position += 1
    for offset in range(len(data) + 1):
        path.write_bytes(data[:offset])
        with AppendLog(path, header) as log:
            log.append(after)
        got = scan(path, header=headered)
        complete = [line for line, end in zip(lines, ends) if end <= offset]
        if headered:
            assert got.header == header
            complete = complete[1:]
        assert got.rows == complete + after, offset


# --- the primitive -------------------------------------------------------------------


class TestAppendLog:
    def test_header_written_once(self, tmp_path):
        path = tmp_path / "sub" / "log.jsonl"
        with AppendLog(path, HEADER) as log:
            log.append([{"r": 1}])
        with AppendLog(path, HEADER) as log:
            log.append([{"r": 2}])
        assert path.read_text().splitlines() == [
            json.dumps(HEADER), json.dumps({"r": 1}), json.dumps({"r": 2})
        ]

    def test_empty_append_creates_nothing(self, tmp_path):
        path = tmp_path / "log.jsonl"
        with AppendLog(path, HEADER) as log:
            log.append([])
        assert not path.exists()

    def test_well_formed_log_is_not_rewritten(self, tmp_path):
        path = tmp_path / "log.jsonl"
        with AppendLog(path, HEADER) as log:
            log.append([{"r": 1}])
        before = path.read_bytes()
        inode = os.stat(path).st_ino
        with AppendLog(path, HEADER) as log:
            log.append([{"r": 2}])
        assert os.stat(path).st_ino == inode
        assert path.read_bytes() == before + b'{"r": 2}\n'

    def test_torn_row_is_fenced_not_truncated(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"r": 1}\n{"r": ')
        with AppendLog(path) as log:
            log.append([{"r": 3}])
        assert path.read_text() == '{"r": 1}\n{"r": \n{"r": 3}\n'
        assert scan(path) == (None, [{"r": 1}, {"r": 3}], 1)

    def test_rewrite_closes_and_replaces(self, tmp_path):
        path = tmp_path / "log.jsonl"
        log = AppendLog(path, HEADER)
        log.append([{"r": 1}, {"r": 2}])
        log.rewrite([{"r": 2}])
        log.append([{"r": 3}])  # reopens the new file
        log.close()
        assert scan(path, header=True) == (HEADER, [{"r": 2}, {"r": 3}], 0)
        assert not list(tmp_path.glob("*.tmp"))


class TestScan:
    def test_missing_file_scans_empty(self, tmp_path):
        assert scan(tmp_path / "nope.jsonl", header=True) == (None, [], 0)

    def test_skips_unparsable_non_object_and_incomplete_rows(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text(
            json.dumps(HEADER) + "\n"
            + '{"values": [1], "metrics": null}\n'
            + "garbage\n"
            + "[1, 2]\n"
            + '{"novalues": true}\n'
            + '{"values": [2], "metr'
        )
        got = scan(path, header=True, require=("values", "metrics"))
        assert got.header == HEADER
        assert got.rows == [{"values": [1], "metrics": None}]
        assert got.skipped == 4

    def test_read_header(self, tmp_path):
        path = tmp_path / "log.jsonl"
        assert read_header(path) is None
        path.write_text(json.dumps(HEADER) + "\n{")
        assert read_header(path) == HEADER
        path.write_text("[1]\n")
        assert read_header(path) is None


def test_atomic_write_replaces_whole_file(tmp_path):
    path = tmp_path / "d" / "snap.json"
    atomic_write(path, "one")
    atomic_write(path, "two")
    assert path.read_text() == "two"
    assert [p.name for p in path.parent.iterdir()] == ["snap.json"]
