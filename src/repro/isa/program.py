"""Program/region abstraction: rewriting acceleratable code into TCAs.

The paper's methodology (§IV) starts from a baseline binary, marks
acceleratable regions, and replaces each region with a single accelerator
instruction.  :class:`Program` reproduces that flow for traces: it pairs a
baseline :class:`~repro.isa.trace.Trace` with a set of
:class:`AcceleratableRegion` spans and can emit either the software-only
baseline or the TCA-ified variant, while also deriving the analytical-model
workload parameters (``a`` and ``v``) that describe it.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Sequence

import numpy as np

from repro.isa.instructions import Instruction, TCADescriptor
from repro.isa.trace import Trace, TraceRows, tca_record


@dataclass(frozen=True)
class AcceleratableRegion:
    """A contiguous span of baseline instructions replaceable by one TCA.

    Attributes:
        start: index of the first baseline instruction in the region.
        length: number of baseline instructions in the region.
        descriptor: the accelerator invocation that replaces the region.
        srcs: architectural registers the replacement TCA reads.
        dsts: architectural registers the replacement TCA writes.
    """

    start: int
    length: int
    descriptor: TCADescriptor
    srcs: tuple[int, ...] = ()
    dsts: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError(f"region start must be non-negative, got {self.start}")
        if self.length <= 0:
            raise ValueError(f"region length must be positive, got {self.length}")

    @property
    def end(self) -> int:
        """One past the last baseline instruction index."""
        return self.start + self.length

    def overlaps(self, other: "AcceleratableRegion") -> bool:
        """Whether two regions share any baseline instruction."""
        return self.start < other.end and other.start < self.end


#: A region as plain values: ``(start, length, descriptor, srcs, dsts)``.
Span = tuple[int, int, TCADescriptor, tuple[int, ...], tuple[int, ...]]
_START = itemgetter(0)
_LENGTH = itemgetter(1)


class Program:
    """A baseline trace plus its acceleratable regions.

    Args:
        baseline: the software-only dynamic instruction stream.
        regions: non-overlapping acceleratable spans within ``baseline``.
        name: program name for reports.

    Raises:
        ValueError: if regions overlap or fall outside the baseline.

    Generators that emit hundreds of regions per program build it with
    :meth:`from_spans` instead, from plain ``(start, length, descriptor,
    srcs, dsts)`` tuples; :attr:`regions` then builds the
    :class:`AcceleratableRegion` objects only when asked for.
    """

    def __init__(
        self,
        baseline: Trace,
        regions: Sequence[AcceleratableRegion],
        name: str | None = None,
    ) -> None:
        ordered = tuple(sorted(regions, key=lambda r: r.start))
        spans = [(r.start, r.length, r.descriptor, r.srcs, r.dsts) for r in ordered]
        self._init(baseline, spans, name)
        self._regions: tuple[AcceleratableRegion, ...] | None = ordered

    @classmethod
    def from_spans(
        cls, baseline: Trace, spans: Sequence[Span], name: str | None = None
    ) -> "Program":
        """A program from regions given as ``(start, length, descriptor,
        srcs, dsts)`` tuples, checked as :class:`AcceleratableRegion`
        checks them."""
        spans = sorted(spans, key=_START)
        for start, length, *_ in spans:
            if start < 0 or length <= 0:
                AcceleratableRegion(start, length, None)  # raises its ValueError
        program = cls.__new__(cls)
        program._init(baseline, spans, name)
        program._regions = None
        return program

    def _init(self, baseline: Trace, spans: list[Span], name: str | None) -> None:
        self.baseline = baseline
        self._spans = spans
        self.name = name or baseline.name
        self._check_regions()

    @property
    def regions(self) -> tuple[AcceleratableRegion, ...]:
        """The regions, ordered by start (built on first use)."""
        regions = self._regions
        if regions is None:
            regions = self._regions = tuple(
                AcceleratableRegion(*span) for span in self._spans
            )
        return regions

    def _check_regions(self) -> None:
        n = len(self.baseline)
        prev_end = 0
        for start, length, *_ in self._spans:
            end = start + length
            if end > n:
                raise ValueError(
                    f"region [{start}, {end}) exceeds baseline length {n}"
                )
            if start < prev_end:
                raise ValueError(
                    f"region starting at {start} overlaps previous region"
                )
            prev_end = end

    @property
    def num_invocations(self) -> int:
        """Number of TCA invocations after acceleration."""
        return len(self._spans)

    @property
    def acceleratable_instructions(self) -> int:
        """Total baseline instructions inside regions."""
        return sum(map(_LENGTH, self._spans))

    @property
    def acceleratable_fraction(self) -> float:
        """Paper parameter ``a``."""
        if len(self.baseline) == 0:
            return 0.0
        return self.acceleratable_instructions / len(self.baseline)

    @property
    def invocation_frequency(self) -> float:
        """Paper parameter ``v`` (invocations per baseline instruction)."""
        if len(self.baseline) == 0:
            return 0.0
        return self.num_invocations / len(self.baseline)

    @property
    def mean_granularity(self) -> float:
        """Average baseline instructions replaced per invocation."""
        if not self._spans:
            return 0.0
        return self.acceleratable_instructions / len(self._spans)

    def accelerated(self, name: str | None = None) -> Trace:
        """Emit the TCA-ified trace: each region collapses to one TCA.

        The emitted TCA instruction carries the region's descriptor with
        ``replaced_instructions`` forced to the region length so trace
        statistics reconstruct the baseline exactly.  Regions that share
        a descriptor object, length and registers share one TCA record,
        so they take one table row.
        """
        records: list[Instruction] = []
        row_of: dict[tuple, int] = {}
        tca_rows = []
        starts = []
        lengths = []
        base = len(self.baseline.rows.table)
        for start, length, descriptor, srcs, dsts in self._spans:
            key = (id(descriptor), length, srcs, dsts)
            row = row_of.get(key)
            if row is None:
                if descriptor.replaced_instructions != length:
                    descriptor = TCADescriptor(
                        name=descriptor.name,
                        compute_latency=descriptor.compute_latency,
                        reads=descriptor.reads,
                        writes=descriptor.writes,
                        replaced_instructions=length,
                        replaced_cycles=descriptor.replaced_cycles,
                    )
                row = row_of[key] = base + len(records)
                records.append(tca_record(descriptor, srcs, dsts))
            tca_rows.append(row)
            starts.append(start)
            lengths.append(length)
        # Splice the index: drop the positions inside regions, then put
        # each region's TCA row where the region began.
        rows = self.baseline.rows
        start = np.array(starts, dtype=np.int64)
        length = np.array(lengths, dtype=np.int64)
        before = start - (np.cumsum(length) - length)  # kept positions before
        inside = np.repeat(before, length) + np.arange(length.sum())
        index = np.insert(
            np.delete(rows.index, inside), before, np.array(tca_rows, dtype=np.int64)
        )
        return Trace.from_rows(
            TraceRows(rows.table + tuple(records), index.astype(np.int32, copy=False)),
            name=name or f"{self.name}-accel",
            metadata={
                **self.baseline.metadata,
                "accelerated": True,
                "invocations": self.num_invocations,
            },
        )

    def region_instructions(self, region: AcceleratableRegion) -> tuple[Instruction, ...]:
        """The baseline instructions a region covers."""
        return self.baseline[region.start : region.end]

    def concat(self, other: "Program", name: str | None = None) -> "Program":
        """Concatenate two programs into one (accelerator-rich scenarios).

        The second program's regions are re-offset past the first
        baseline; metadata ``warm_ranges`` lists are merged.
        """
        offset = len(self.baseline)
        shifted = [
            AcceleratableRegion(
                start=region.start + offset,
                length=region.length,
                descriptor=region.descriptor,
                srcs=region.srcs,
                dsts=region.dsts,
            )
            for region in other.regions
        ]
        merged_trace = self.baseline.concat(other.baseline, name=name)
        warm = list(self.baseline.metadata.get("warm_ranges", [])) + list(
            other.baseline.metadata.get("warm_ranges", [])
        )
        if warm:
            merged_trace.metadata["warm_ranges"] = warm
        return Program(
            merged_trace,
            list(self.regions) + shifted,
            name=name or f"{self.name}+{other.name}",
        )

    @staticmethod
    def from_region_finder(
        baseline: Trace,
        finder: Callable[[Trace], Sequence[AcceleratableRegion]],
        name: str | None = None,
    ) -> "Program":
        """Build a program by running a region-finding pass over a trace."""
        return Program(baseline, finder(baseline), name=name)
