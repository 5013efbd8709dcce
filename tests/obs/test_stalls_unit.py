"""Unit tests of the shard stall tracker's bookkeeping."""

import pytest

from repro.obs.stalls import (
    ISSUED,
    STALL_REASONS,
    ShardStallTracker,
    check_conservation,
    merge_stalls,
)


class TestCommit:
    def test_bins_accumulate(self):
        t = ShardStallTracker(4)
        t.commit({ISSUED: 1, "scoreboard": 3})
        t.commit({ISSUED: 2, "scoreboard": 1, "exited": 1})
        assert t.bins == {ISSUED: 3, "scoreboard": 4, "exited": 1}
        assert t.cycles == 2
        assert t.total == 8

    def test_occupancy_histogram(self):
        t = ShardStallTracker(4)
        t.commit({"scoreboard": 3, ISSUED: 1})
        t.commit({"scoreboard": 3, ISSUED: 1})
        t.commit({"scoreboard": 1, ISSUED: 3})
        assert t.occupancy["scoreboard"] == {3: 2, 1: 1}
        # Histogram and bins agree: sum(n * cycles_at_n) == warp-cycles.
        for reason, hist in t.occupancy.items():
            assert sum(n * c for n, c in hist.items()) == t.bins[reason]


class TestReplay:
    def test_replay_scales_the_last_cycle(self):
        t = ShardStallTracker(4)
        t.commit({"mem_pending": 4})
        t.replay(10)
        assert t.cycles == 11
        assert t.bins == {"mem_pending": 44}
        assert t.occupancy["mem_pending"] == {4: 11}

    def test_replay_zero_is_noop(self):
        t = ShardStallTracker(2)
        t.commit({ISSUED: 2})
        t.replay(0)
        assert t.cycles == 1

    def test_replay_before_any_commit_stays_conservative(self):
        t = ShardStallTracker(4)
        t.replay(5)
        check_conservation(t.report(0, 0))


class TestReportAndMerge:
    def test_report_is_plain_data(self):
        t = ShardStallTracker(2)
        t.commit({ISSUED: 1, "barrier": 1})
        report = t.report(1, 3)
        assert report["sm"] == 1 and report["shard"] == 3
        assert report["warps"] == 2 and report["cycles"] == 1
        check_conservation(report)

    def test_conservation_violation_raises(self):
        t = ShardStallTracker(4)
        t.commit({ISSUED: 1})  # 3 warps unaccounted
        with pytest.raises(AssertionError):
            check_conservation(t.report(0, 0))

    def test_merge_stalls_sums_shards(self):
        a, b = ShardStallTracker(2), ShardStallTracker(2)
        a.commit({ISSUED: 2})
        b.commit({"barrier": 2})
        merged = merge_stalls([a.report(0, 0), b.report(0, 1)])
        assert merged == {ISSUED: 2, "barrier": 2}


def test_reason_names_are_unique_and_exclude_issued():
    assert len(set(STALL_REASONS)) == len(STALL_REASONS)
    assert ISSUED not in STALL_REASONS
