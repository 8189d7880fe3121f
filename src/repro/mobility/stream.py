"""Streaming trace production.

A :class:`~repro.mobility.trace.Trace` materializes every
:class:`~repro.mobility.trace.VisitRecord` up front — fine for the paper's
DART/DNET scale, a hard wall for the ROADMAP's millions-of-users target.
This module adds the streaming counterpart:

* :class:`TraceStream` — a re-iterable, time-ordered record stream with
  explicit metadata (span, node/landmark sets), a streaming
  :meth:`TraceStream.replay_events` that emits the engine's event tuples
  in exactly the order the serial engine's global sort would produce
  (proved in the method docstring), and chunked iteration;
* ``CampusMobilityModel.stream_visits`` / ``BusMobilityModel.stream_visits``
  (defined in :mod:`repro.mobility.synthetic`) produce such streams from
  per-node generators merged with ``heapq.merge`` — O(nodes) memory
  instead of O(records).
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.mobility.trace import ReplayEvent, Trace, VisitRecord

__all__ = ["TraceStream"]

#: a zero-argument factory returning a fresh, time-ordered record iterator;
#: called once per pass so a stream can be replayed without materializing
RecordSource = Callable[[], Iterable[VisitRecord]]


class TraceStream:
    """A re-iterable, time-ordered visit-record stream with explicit metadata.

    Duck-types the :class:`~repro.mobility.trace.Trace` surface the engine
    reads (``name``/``nodes``/``landmarks``/``start_time``/``end_time``/
    ``duration``/``n_nodes``/``n_landmarks``/``replay_events``/``__len__``)
    without holding the records: each pass re-invokes the ``source``
    factory, so a generated stream costs O(open visits) memory per pass.

    Records must arrive in sorted order (the :class:`VisitRecord` ordering);
    :meth:`iter_records` enforces this so a mis-ordered source fails loudly
    instead of silently corrupting the event schedule.
    """

    def __init__(
        self,
        source: RecordSource,
        *,
        name: str = "stream",
        start_time: float,
        end_time: float,
        nodes: Sequence[int],
        landmarks: Sequence[int],
        n_records: int,
    ) -> None:
        self._source = source
        self.name = name
        self.start_time = float(start_time)
        self.end_time = float(end_time)
        self.nodes: Tuple[int, ...] = tuple(sorted(set(int(n) for n in nodes)))
        self.landmarks: Tuple[int, ...] = tuple(
            sorted(set(int(lm) for lm in landmarks))
        )
        if n_records < 0:
            raise ValueError(f"n_records must be >= 0, got {n_records}")
        self._n_records = int(n_records)

    # -- construction ---------------------------------------------------------------
    @classmethod
    def from_trace(cls, trace: Trace) -> "TraceStream":
        """Wrap a materialized trace (metadata is already known)."""
        return cls(
            lambda: iter(trace.records),
            name=trace.name,
            start_time=trace.start_time,
            end_time=trace.end_time,
            nodes=trace.nodes,
            landmarks=trace.landmarks,
            n_records=len(trace),
        )

    @classmethod
    def from_source(cls, source: RecordSource, *, name: str = "stream") -> "TraceStream":
        """Build a stream from a record factory, scanning once for metadata.

        The scan holds only the node/landmark id sets — O(nodes + landmarks)
        memory — and validates ordering as it goes.
        """
        nodes: set = set()
        landmarks: set = set()
        n = 0
        start = math.inf
        end = -math.inf
        prev: Optional[VisitRecord] = None
        for rec in source():
            if prev is not None and rec < prev:
                raise ValueError(
                    f"record source for {name!r} is not sorted: "
                    f"{rec} after {prev}"
                )
            prev = rec
            nodes.add(rec.node)
            landmarks.add(rec.landmark)
            if rec.start < start:
                start = rec.start
            if rec.end > end:
                end = rec.end
            n += 1
        if n == 0:
            start = end = 0.0
        return cls(
            source,
            name=name,
            start_time=start,
            end_time=end,
            nodes=sorted(nodes),
            landmarks=sorted(landmarks),
            n_records=n,
        )

    def materialize(self) -> Trace:
        """Collapse the stream into a materialized :class:`Trace`."""
        return Trace(list(self.iter_records()), name=self.name, presorted=True)

    # -- Trace-compatible metadata ----------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_landmarks(self) -> int:
        return len(self.landmarks)

    @property
    def duration(self) -> float:
        return self.end_time - self.start_time

    def __len__(self) -> int:
        return self._n_records

    # -- iteration --------------------------------------------------------------------
    def iter_records(self) -> Iterator[VisitRecord]:
        """One fresh pass over the records, verifying sorted order."""
        prev: Optional[VisitRecord] = None
        for rec in self._source():
            if prev is not None and rec < prev:
                raise ValueError(
                    f"record source for {self.name!r} is not sorted: "
                    f"{rec} after {prev}"
                )
            prev = rec
            yield rec

    def __iter__(self) -> Iterator[VisitRecord]:
        return self.iter_records()

    def iter_chunks(self, size: int) -> Iterator[List[VisitRecord]]:
        """The stream in bounded record batches (the last may be short)."""
        if size <= 0:
            raise ValueError(f"chunk size must be positive, got {size}")
        chunk: List[VisitRecord] = []
        for rec in self.iter_records():
            chunk.append(rec)
            if len(chunk) >= size:
                yield chunk
                chunk = []
        if chunk:
            yield chunk

    def replay_events(self, start_kind: int, end_kind: int) -> Iterator[ReplayEvent]:
        """The engine's visit events, streamed in globally sorted order.

        Yields ``(time, kind, seq, record)`` tuples with the same sequence
        numbering as :meth:`Trace.replay_events` (record ``i`` gets seqs
        ``2i``/``2i+1``), but already in ``(time, kind, seq)`` sort order so
        the engine can consume them without a global sort.

        Correctness: records stream in start order, so the only events that
        can sort before a start event not yet seen are the *end* events of
        already-open visits.  Those are held in a min-heap; before emitting
        record ``i``'s start we push its own end (a zero-length visit's end
        sorts *before* its start at equal time, since ``end_kind <
        start_kind``) and drain every held event that orders below
        ``(start, start_kind, 2i)``.  The heap holds one entry per open
        visit — O(concurrent visits), not O(records).

        Raises the same :class:`ValueError` as ``Trace.replay_events`` on
        non-monotonic or NaN timestamps.
        """
        if not end_kind < start_kind:
            raise ValueError(
                f"streamed replay needs end_kind < start_kind "
                f"(got {end_kind} >= {start_kind}): ends at equal timestamps "
                "must sort before starts"
            )
        heap: List[ReplayEvent] = []
        seq = 0
        prev_start = -math.inf
        i = 0
        for rec in self._source():
            # negated >= so NaN timestamps (all comparisons False) are
            # caught too, matching Trace.replay_events
            if not (rec.start >= prev_start):
                raise ValueError(
                    f"non-monotonic visit times in stream {self.name!r}: "
                    f"record {i} starts at {rec.start} after a record "
                    f"starting at {prev_start}"
                )
            if not (rec.end >= rec.start):
                raise ValueError(
                    f"non-monotonic visit times in stream {self.name!r}: "
                    f"record {i} ends at {rec.end}, before its start "
                    f"{rec.start}"
                )
            prev_start = rec.start
            start_ev: ReplayEvent = (rec.start, start_kind, seq, rec)
            heapq.heappush(heap, (rec.end, end_kind, seq + 1, rec))
            # tuple compare never reaches the record: seqs are unique
            while heap and heap[0] < start_ev:
                yield heapq.heappop(heap)
            yield start_ev
            seq += 2
            i += 1
        while heap:
            yield heapq.heappop(heap)
