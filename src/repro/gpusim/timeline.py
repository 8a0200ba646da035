"""Execution-timeline recording.

Every completed operation leaves a :class:`TimelineRecord`.  The overlap
metrics of section V-F (CT/TC/CC/TOT) are computed from these records by
:mod:`repro.metrics.overlap`; Fig. 10's ML timeline is rendered straight
from a :class:`Timeline`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Iterator


class IntervalKind(enum.Enum):
    """Coarse classification of a timeline interval."""

    KERNEL = "kernel"
    TRANSFER_HTOD = "htod"
    TRANSFER_DTOH = "dtoh"
    TRANSFER_D2D = "d2d"
    EVENT = "event"

    @property
    def is_transfer(self) -> bool:
        return self in (
            IntervalKind.TRANSFER_HTOD,
            IntervalKind.TRANSFER_DTOH,
            IntervalKind.TRANSFER_D2D,
        )


@dataclass(frozen=True)
class TimelineRecord:
    """One completed operation on the device timeline."""

    op_id: int
    label: str
    kind: IntervalKind
    stream_id: int
    start: float
    end: float
    nbytes: float = 0.0
    meta: dict = field(default_factory=dict, compare=False, hash=False)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def overlaps(self, other: "TimelineRecord") -> bool:
        """True if the two intervals intersect with positive measure."""
        return self.start < other.end and other.start < self.end

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(
                f"record {self.label!r}: end {self.end} < start {self.start}"
            )


class Timeline:
    """An append-only list of completed-operation records.

    Aggregates (``start``/``end``/``makespan``, per-kind duration and
    byte totals) and the per-stream grouping are maintained
    incrementally in :meth:`add`: metrics and the serving harness query
    them per request, and a full scan per query made long-lived engines
    O(records) per step.  Running sums accumulate in append order, so
    they are bit-identical to the scans they replace.
    """

    def __init__(self) -> None:
        self._records: list[TimelineRecord] = []
        self._kernels: list[TimelineRecord] = []
        self._transfers: list[TimelineRecord] = []
        self._by_stream: dict[int, list[TimelineRecord]] = {}
        self._start: float | None = None
        self._end: float | None = None
        self._kernel_time: float = 0.0
        self._transfer_time: float = 0.0
        self._transfer_bytes: float = 0.0

    def __call__(self) -> "Timeline":
        """Identity call, so both spellings resolve: ``sess.timeline()``
        (the Session API's canonical surface) and the ``sess.timeline``
        attribute are the same Timeline."""
        return self

    def add(self, record: TimelineRecord) -> None:
        self._records.append(record)
        self._by_stream.setdefault(record.stream_id, []).append(record)
        duration = record.duration
        if duration > 0:
            if self._start is None or record.start < self._start:
                self._start = record.start
            if self._end is None or record.end > self._end:
                self._end = record.end
        if record.kind is IntervalKind.KERNEL:
            self._kernels.append(record)
            self._kernel_time += duration
        elif record.kind.is_transfer:
            self._transfers.append(record)
            self._transfer_time += duration
            self._transfer_bytes += record.nbytes

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TimelineRecord]:
        return iter(self._records)

    @property
    def records(self) -> tuple[TimelineRecord, ...]:
        return tuple(self._records)

    def clear(self) -> None:
        self._records.clear()
        self._kernels.clear()
        self._transfers.clear()
        self._by_stream.clear()
        self._start = None
        self._end = None
        self._kernel_time = 0.0
        self._transfer_time = 0.0
        self._transfer_bytes = 0.0

    # -- selections -------------------------------------------------------

    def kernels(self) -> list[TimelineRecord]:
        return list(self._kernels)

    def transfers(self) -> list[TimelineRecord]:
        return list(self._transfers)

    def by_stream(self, stream_id: int) -> list[TimelineRecord]:
        return list(self._by_stream.get(stream_id, ()))

    def stream_ids(self) -> list[int]:
        return sorted(self._by_stream)

    # -- aggregates ---------------------------------------------------------

    @property
    def start(self) -> float:
        """Start of the earliest non-empty interval (0.0 if empty)."""
        return 0.0 if self._start is None else self._start

    @property
    def end(self) -> float:
        return 0.0 if self._end is None else self._end

    @property
    def makespan(self) -> float:
        """Total elapsed device time: first start to last end.

        This matches the paper's definition of execution time ("from the
        first kernel scheduling until the end of execution").
        """
        return self.end - self.start

    def total_kernel_time(self) -> float:
        return self._kernel_time

    def total_transfer_time(self) -> float:
        return self._transfer_time

    def total_transferred_bytes(self) -> float:
        return self._transfer_bytes

    # -- rendering ----------------------------------------------------------

    def render_ascii(self, width: int = 96) -> str:
        """Render the timeline as ASCII art, one row per stream.

        Used by the Fig. 10 bench and the examples; deliberately coarse
        (character resolution) but faithful to interval positions.
        """
        if not self._records or self.makespan <= 0:
            return "(empty timeline)"
        t0, t1 = self.start, self.end
        scale = (width - 1) / (t1 - t0)
        lines = []
        # One pass over the maintained per-stream grouping: the legacy
        # implementation re-scanned every record once per stream.
        for sid in self.stream_ids():
            row = [" "] * width
            for rec in self._by_stream[sid]:
                if rec.duration <= 0:
                    continue
                a = int((rec.start - t0) * scale)
                b = max(a + 1, int((rec.end - t0) * scale))
                if rec.kind is IntervalKind.KERNEL:
                    ch = "#"
                elif rec.kind is IntervalKind.TRANSFER_HTOD:
                    ch = ">"
                elif rec.kind is IntervalKind.TRANSFER_D2D:
                    ch = "="
                else:
                    ch = "<"
                for i in range(a, min(b, width)):
                    row[i] = ch
                # Tag the interval with the first letters of its label.
                tag = (rec.label or "")[: max(0, b - a)]
                for j, c in enumerate(tag):
                    if a + j < width:
                        row[a + j] = c
            lines.append(f"S{sid:<3d} |" + "".join(row))
        header = (
            f"t=[{t0 * 1e3:.3f} ms .. {t1 * 1e3:.3f} ms]   "
            "# kernel   > HtoD   < DtoH"
        )
        return "\n".join([header, *lines])


def merge_intervals(
    intervals: Iterable[tuple[float, float]],
) -> list[tuple[float, float]]:
    """Union of possibly-overlapping intervals as a sorted disjoint list.

    Zero-length intervals are dropped.  Shared helper for the overlap
    metrics (the paper counts each overlapped second once: "we consider
    the union of the overlap intervals").
    """
    items = sorted((a, b) for a, b in intervals if b > a)
    merged: list[tuple[float, float]] = []
    for a, b in items:
        if merged and a <= merged[-1][1]:
            prev_a, prev_b = merged[-1]
            merged[-1] = (prev_a, max(prev_b, b))
        else:
            merged.append((a, b))
    return merged


def intervals_measure(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    return sum(b - a for a, b in merge_intervals(intervals))


def intersect_two(
    xs: list[tuple[float, float]], ys: list[tuple[float, float]]
) -> list[tuple[float, float]]:
    """Intersection of two disjoint sorted interval lists."""
    out: list[tuple[float, float]] = []
    i = j = 0
    while i < len(xs) and j < len(ys):
        a = max(xs[i][0], ys[j][0])
        b = min(xs[i][1], ys[j][1])
        if a < b:
            out.append((a, b))
        if xs[i][1] <= ys[j][1]:
            i += 1
        else:
            j += 1
    return out
