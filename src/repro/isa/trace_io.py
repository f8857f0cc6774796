"""Trace serialization: save and reload dynamic instruction streams.

Workload generation can dominate experiment runtime for large traces;
serializing them lets a sweep reuse its inputs, lets users inspect what a
generator produced, and lets external tools inject their own traces into
the simulator.  The format is line-delimited JSON: one header object
followed by one object per instruction — diffable, streamable, and
stable across versions (unknown keys are ignored on load).
"""

from __future__ import annotations

import json
from typing import IO, Iterator

import numpy as np

from repro.isa.instructions import (
    Instruction,
    MemRequest,
    OpClass,
    TCADescriptor,
)
from repro.isa.trace import Trace, TraceRows

FORMAT_VERSION = 1


def _request_to_obj(req: MemRequest) -> list:
    return [req.addr, req.size]


def _descriptor_to_obj(descriptor: TCADescriptor) -> dict:
    return {
        "name": descriptor.name,
        "lat": descriptor.compute_latency,
        "reads": [_request_to_obj(r) for r in descriptor.reads],
        "writes": [_request_to_obj(w) for w in descriptor.writes],
        "repl": descriptor.replaced_instructions,
        "repl_cyc": descriptor.replaced_cycles,
    }


def _descriptor_from_obj(obj: dict) -> TCADescriptor:
    return TCADescriptor(
        name=obj["name"],
        compute_latency=obj["lat"],
        reads=tuple(MemRequest(a, s) for a, s in obj.get("reads", ())),
        writes=tuple(
            MemRequest(a, s, is_write=True) for a, s in obj.get("writes", ())
        ),
        replaced_instructions=obj.get("repl", 0),
        replaced_cycles=obj.get("repl_cyc", 0),
    )


def _instruction_to_obj(inst: Instruction) -> dict:
    obj: dict = {"op": inst.op.value}
    if inst.srcs:
        obj["s"] = list(inst.srcs)
    if inst.dsts:
        obj["d"] = list(inst.dsts)
    if inst.addr is not None:
        obj["a"] = inst.addr
        obj["sz"] = inst.size
    if inst.mispredicted:
        obj["mp"] = True
    if inst.low_confidence:
        obj["lc"] = True
    if inst.latency is not None:
        obj["lat"] = inst.latency
    if inst.tca is not None:
        obj["tca"] = _descriptor_to_obj(inst.tca)
    return obj


def _instruction_from_obj(obj: dict) -> Instruction:
    return Instruction(
        op=OpClass(obj["op"]),
        srcs=tuple(obj.get("s", ())),
        dsts=tuple(obj.get("d", ())),
        addr=obj.get("a"),
        size=obj.get("sz", 8),
        mispredicted=obj.get("mp", False),
        low_confidence=obj.get("lc", False),
        latency=obj.get("lat"),
        tca=_descriptor_from_obj(obj["tca"]) if "tca" in obj else None,
    )


def dump_trace(trace: Trace, handle: IO[str]) -> None:
    """Write a trace as line-delimited JSON."""
    header = {
        "format": "repro-trace",
        "version": FORMAT_VERSION,
        "name": trace.name,
        "metadata": trace.metadata,
        "length": len(trace),
    }
    handle.write(json.dumps(header) + "\n")
    for inst in trace:
        handle.write(json.dumps(_instruction_to_obj(inst)) + "\n")


def save_trace(trace: Trace, path: str) -> None:
    """Write a trace to ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        dump_trace(trace, handle)


def _iter_objects(handle: IO[str]) -> Iterator[dict]:
    for line in handle:
        line = line.strip()
        if line:
            yield json.loads(line)


def load_trace_stream(handle: IO[str]) -> Trace:
    """Read a trace from an open line-delimited JSON stream.

    Raises:
        ValueError: on a missing/foreign header or length mismatch.
    """
    objects = _iter_objects(handle)
    try:
        header = next(objects)
    except StopIteration:
        raise ValueError("empty trace stream") from None
    if header.get("format") != "repro-trace":
        raise ValueError("not a repro trace stream (bad header)")
    if header.get("version", 0) > FORMAT_VERSION:
        raise ValueError(
            f"trace format version {header['version']} is newer than "
            f"supported ({FORMAT_VERSION})"
        )
    instructions = [_instruction_from_obj(obj) for obj in objects]
    expected = header.get("length")
    if expected is not None and expected != len(instructions):
        raise ValueError(
            f"trace declares {expected} instructions but contains "
            f"{len(instructions)}"
        )
    # Every record was just built, so each is its own table row.
    rows = TraceRows(tuple(instructions), np.arange(len(instructions), dtype=np.int32))
    return Trace.from_rows(
        rows, name=header.get("name", "trace"), metadata=header.get("metadata", {})
    )


def load_trace(path: str) -> Trace:
    """Read a trace from ``path``."""
    with open(path, encoding="utf-8") as handle:
        return load_trace_stream(handle)
