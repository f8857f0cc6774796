"""Instruction-set and trace substrate shared by the simulator and workloads.

The paper's methodology replaces acceleratable code in compiled binaries with
a dedicated accelerator instruction and feeds the result to gem5.  This
package provides the equivalent representation for our from-scratch
simulator: a small micro-op vocabulary (:class:`~repro.isa.instructions.OpClass`),
dynamic instruction records (:class:`~repro.isa.instructions.Instruction`),
TCA descriptors (:class:`~repro.isa.instructions.TCADescriptor`), trace
containers and builders (:mod:`repro.isa.trace`), and a program/region
abstraction that rewrites acceleratable regions into TCA invocations
(:mod:`repro.isa.program`).
"""

from repro.isa.instructions import (
    CACHE_LINE_BYTES,
    MAX_TCA_CHUNK_BYTES,
    Instruction,
    MemRequest,
    OpClass,
    TCADescriptor,
    chunk_memory_range,
)
from repro.isa.program import AcceleratableRegion, Program
from repro.isa.trace import Trace, TraceBuilder, TraceRows, TraceStats
from repro.isa.trace_io import load_trace, save_trace

__all__ = [
    "CACHE_LINE_BYTES",
    "MAX_TCA_CHUNK_BYTES",
    "AcceleratableRegion",
    "Instruction",
    "MemRequest",
    "OpClass",
    "Program",
    "TCADescriptor",
    "Trace",
    "TraceBuilder",
    "TraceRows",
    "TraceStats",
    "chunk_memory_range",
    "load_trace",
    "save_trace",
]
