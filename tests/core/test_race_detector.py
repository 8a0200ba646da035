"""Tests for the data-race detector used to validate schedules."""

import pytest

from repro.core.race import check_no_races, find_races
from repro.errors import DataRaceError
from repro.gpusim.timeline import IntervalKind, Timeline, TimelineRecord


def krec(label, start, end, reads=(), writes=(), stream=0):
    names = {x: f"a{x}" for x in (*reads, *writes)}
    return TimelineRecord(
        op_id=0,
        label=label,
        kind=IntervalKind.KERNEL,
        stream_id=stream,
        start=start,
        end=end,
        meta={
            "reads": frozenset(reads),
            "writes": frozenset(writes),
            "array_names": names,
        },
    )


def timeline(*records):
    tl = Timeline()
    for r in records:
        tl.add(r)
    return tl


class TestFindRaces:
    def test_empty_timeline(self):
        assert find_races(timeline()) == []

    def test_disjoint_in_time_no_race(self):
        tl = timeline(
            krec("a", 0, 1, writes=[1]), krec("b", 1, 2, reads=[1])
        )
        assert find_races(tl) == []

    def test_write_read_overlap_is_race(self):
        tl = timeline(
            krec("a", 0, 2, writes=[1]), krec("b", 1, 3, reads=[1])
        )
        races = find_races(tl)
        assert len(races) == 1
        assert races[0].array_names == ("a1",)

    def test_write_write_overlap_is_race(self):
        tl = timeline(
            krec("a", 0, 2, writes=[1]), krec("b", 1, 3, writes=[1])
        )
        assert len(find_races(tl)) == 1

    def test_read_read_overlap_is_fine(self):
        tl = timeline(
            krec("a", 0, 2, reads=[1]), krec("b", 1, 3, reads=[1])
        )
        assert find_races(tl) == []

    def test_overlap_on_different_arrays_is_fine(self):
        tl = timeline(
            krec("a", 0, 2, writes=[1]), krec("b", 1, 3, writes=[2])
        )
        assert find_races(tl) == []

    def test_unannotated_kernels_skipped(self):
        tl = timeline(
            TimelineRecord(
                op_id=0, label="x", kind=IntervalKind.KERNEL,
                stream_id=0, start=0, end=2,
            ),
            krec("a", 0, 2, writes=[1]),
        )
        assert find_races(tl) == []

    def test_multiple_races_reported(self):
        tl = timeline(
            krec("a", 0, 10, writes=[1]),
            krec("b", 1, 3, reads=[1]),
            krec("c", 4, 6, writes=[1]),
        )
        assert len(find_races(tl)) >= 2


class TestCheckNoRaces:
    def test_raises_with_description(self):
        tl = timeline(
            krec("writer", 0, 2, writes=[7]),
            krec("reader", 1, 3, reads=[7]),
        )
        with pytest.raises(DataRaceError) as exc:
            check_no_races(tl)
        assert "writer" in str(exc.value)
        assert "a7" in str(exc.value)

    def test_passes_clean_timeline(self):
        tl = timeline(
            krec("a", 0, 1, writes=[1]), krec("b", 2, 3, reads=[1])
        )
        check_no_races(tl)


class TestPerCopyTokens:
    def test_race_names_the_conflicting_copy(self):
        def rec(label, start, end, **sets):
            record = krec(label, start, end, **sets)
            record.meta["array_names"] = {(7, 1): "a", (7, -1): "a"}
            return record

        tl = timeline(
            rec("k", 0, 2, writes=[(7, 1)]),
            rec("DtoH", 1, 3, reads=[(7, 1)], writes=[(7, -1)]),
        )
        [race] = find_races(tl)
        assert race.array_names == ("a@gpu1",)


class TestReadbackTokens:
    """Host readbacks carry per-copy tokens at every device count, so
    the detector sees a readback racing a writer of its source copy."""

    @pytest.mark.parametrize("gpus", [1, 2])
    def test_dtoh_reads_the_source_replica(self, gpus):
        from repro import Session

        sess = Session(gpus=gpus)
        x = sess.array(1 << 16, name="x")
        write = sess.build_kernel(lambda a, n: None, "w", "ptr, sint32")
        write(64, 256)(x, 1 << 16)
        x.to_numpy()
        [dtoh] = [
            r
            for r in sess.timeline()
            if r.kind is IntervalKind.TRANSFER_DTOH
        ]
        [kernel] = sess.timeline().kernels()
        device = kernel.meta["device"]
        assert dtoh.meta["reads"] == frozenset({(id(x), device)})
        assert (id(x), device) in kernel.meta["writes"]
