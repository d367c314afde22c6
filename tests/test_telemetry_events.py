"""Structured event log: schema, merged stream, the session's stream."""

import json
import pickle

import pytest

from repro.telemetry.events import (
    EVENT_SCHEMA_VERSION,
    EventLog,
    merge_event_logs,
    read_events,
    validate_event,
)
from repro.telemetry.session import RunTelemetry


class TestSchema:
    def test_emit_matches_schema(self):
        log = EventLog(rank=3)
        rec = log.emit("checkpoint", step=7, path="/tmp/x.npz")
        validate_event(rec)
        assert rec["v"] == EVENT_SCHEMA_VERSION
        assert rec["rank"] == 3
        assert rec["kind"] == "checkpoint"
        assert rec["data"] == {"step": 7, "path": "/tmp/x.npz"}

    def test_level_positional_keeps_data_key_free(self):
        # "level" is positional-only on emit, so a payload may carry its
        # own "level" entry
        log = EventLog()
        rec = log.emit("log", "WARNING", level="noise-floor")
        assert rec["level"] == "WARNING"
        assert rec["data"]["level"] == "noise-floor"

    def test_validate_rejects_bad_records(self):
        with pytest.raises(ValueError, match="lacks keys"):
            validate_event({"v": 1, "kind": "x"})
        good = EventLog().emit("x", a=1)
        bad = dict(good, v=99)
        with pytest.raises(ValueError, match="version"):
            validate_event(bad)
        with pytest.raises(ValueError, match="kind"):
            validate_event(dict(good, kind=""))
        with pytest.raises(ValueError, match="data"):
            validate_event(dict(good, data=[1]))

    def test_seq_monotonic_and_count(self):
        log = EventLog()
        for i in range(5):
            log.emit("tick", i=i)
        log.emit("tock")
        assert [r["seq"] for r in log.records] == list(range(6))
        assert log.count() == 6
        assert log.count("tick") == 5


class TestFilesAndMerge:
    def test_round_trip(self, tmp_path):
        log = EventLog(rank=0)
        log.emit("run_start", steps=10)
        log.emit("guard_trip", "ERROR", violations=["nan"])
        merge_event_logs(log.records, tmp_path / "events-merged.jsonl")
        records = read_events(tmp_path / "events-merged.jsonl")
        assert [r["kind"] for r in records] == ["run_start", "guard_trip"]
        assert records[1]["level"] == "ERROR"
        assert records == log.records

    def test_merge_orders_by_time(self, tmp_path):
        import time

        logs = [EventLog(rank=r) for r in range(3)]
        for i in range(4):
            logs[i % 3].emit("tick", i=i)
            time.sleep(0.002)  # guarantee distinct timestamps
        merged = merge_event_logs(
            [r for log in logs for r in log.records],
            tmp_path / "events-merged.jsonl",
        )
        assert [r["data"]["i"] for r in merged] == [0, 1, 2, 3]
        on_disk = [
            json.loads(line)
            for line in (tmp_path / "events-merged.jsonl").read_text().splitlines()
        ]
        assert on_disk == merged


class TestSessionStream:
    def test_stream_is_served_with_or_without_a_directory(self, tmp_path):
        for directory in (None, tmp_path):
            telemetry = RunTelemetry(directory=directory)
            telemetry.events.emit("campaign_start")
            rank1 = EventLog(rank=1)
            rank1.emit("run_start")
            telemetry.absorb([{"events": rank1.records}, {}])
            kinds = [r["kind"] for r in telemetry.merge_events()]
            assert kinds == ["campaign_start", "run_start"]
            assert telemetry.event_stats()["count"] == 2
        assert read_events(tmp_path / "events-merged.jsonl") == (
            telemetry.merge_events()
        )

    def test_stream_never_travels_with_the_configuration(self):
        telemetry = RunTelemetry(run_id="cfg", heartbeat_every=2)
        for i in range(100):
            telemetry.events.emit("heartbeat", step=i)
        copy = pickle.loads(pickle.dumps(telemetry))
        assert copy == telemetry
        assert copy.events.records == []
        assert len(telemetry.events.records) == 100
