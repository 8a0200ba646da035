"""Data-race detector over simulated timelines.

A correct scheduler never lets two operations that conflict on an array
(at least one writes it) overlap in time without an ordering between
them.  Because the simulator records exact start/end times, conflicting
kernels that *overlap* are precisely those the scheduler failed to order
— there is no false positive from "could have overlapped".

This is a verification tool: the parallel scheduler is exercised against
it in the test suite (every benchmark, every policy) to prove the
dependency inference of section IV-A is sound.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import DataRaceError
from repro.gpusim.timeline import IntervalKind, Timeline, TimelineRecord
from repro.memory.coherence import HOST


@dataclass(frozen=True)
class Race:
    """Two overlapping, conflicting kernel executions."""

    first: TimelineRecord
    second: TimelineRecord
    array_names: tuple[str, ...]

    def describe(self) -> str:
        arrays = ", ".join(self.array_names)
        return (
            f"{self.first.label!r} [{self.first.start:.6f},"
            f" {self.first.end:.6f}] overlaps {self.second.label!r}"
            f" [{self.second.start:.6f}, {self.second.end:.6f}]"
            f" conflicting on {arrays}"
        )


def _conflict(a: TimelineRecord, b: TimelineRecord) -> tuple[str, ...]:
    """Names of arrays on which ``a`` and ``b`` conflict (RW/WR/WW)."""
    ra, wa = a.meta.get("reads", frozenset()), a.meta.get("writes", frozenset())
    rb, wb = b.meta.get("reads", frozenset()), b.meta.get("writes", frozenset())
    conflicting = (wa & (rb | wb)) | (wb & ra)
    if not conflicting:
        return ()
    names = {**a.meta.get("array_names", {}), **b.meta.get("array_names", {})}
    return tuple(sorted(_copy_label(names, x) for x in conflicting))


def _copy_label(names: dict, token) -> str:
    """Display name of one token; per-copy ``(array, location)`` tokens
    (see :func:`repro.memory.coherence.stamp_access_tokens`) name the
    copy too."""
    if not isinstance(token, tuple):
        return names.get(token, f"array@{token:#x}")
    array_id, where = token
    name = names.get(token, f"array@{array_id:#x}")
    return f"{name}@{'host' if where == HOST else f'gpu{where}'}"


def find_races(timeline: Timeline) -> list[Race]:
    """All pairs of overlapping, conflicting records.

    Covers kernel-kernel conflicts and kernel-transfer conflicts (a
    host-to-device migration writes the device copy: a kernel touching
    the same array must not overlap it).
    """
    annotated = [
        r
        for r in timeline
        if "reads" in r.meta
        and (r.kind is IntervalKind.KERNEL or r.kind.is_transfer)
    ]
    annotated.sort(key=lambda r: r.start)
    races: list[Race] = []
    for i, a in enumerate(annotated):
        for b in annotated[i + 1 :]:
            if b.start >= a.end:
                break  # sorted: no later record can overlap a
            if a.overlaps(b):
                arrays = _conflict(a, b)
                if arrays:
                    races.append(Race(first=a, second=b, array_names=arrays))
    return races


def check_no_races(timeline: Timeline) -> None:
    """Raise :class:`DataRaceError` if the timeline contains a race."""
    races = find_races(timeline)
    if races:
        detail = "\n  ".join(r.describe() for r in races[:10])
        raise DataRaceError(
            f"{len(races)} data race(s) detected:\n  {detail}"
        )
