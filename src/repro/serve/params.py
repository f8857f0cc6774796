"""Request parsing and validation for the HTTP service.

Every endpoint payload passes through these parsers before touching the
model or simulator.  Invalid input raises :class:`RequestError`, which
the service turns into a structured 400 — ``{"error": ..., "field":
...}`` — instead of a stack trace; the field path (``queries[3].core``)
tells the client exactly which part of the request to fix.

Parameter specs mirror the :mod:`repro.api` serialization formats, with
two client conveniences: cores and simulator configurations accept the
CLI preset names (``a72``/``hp``/``lp``), and workloads accept the
paper's ``granularity`` form in place of an explicit invocation
frequency.
"""

from __future__ import annotations

import io
import math
from collections.abc import Iterable, Mapping
from typing import Any

import numpy as np

from repro.core.drain import (
    BalancedWindowDrain,
    DrainEstimator,
    ExplicitDrain,
    PowerLawDrain,
)
from repro.core.energy import EnergyParameters
from repro.core.modes import TCAMode
from repro.core.pareto import DEFAULT_BLOCK_SIZE, ParetoSweepSpec
from repro.core.tech import DEFAULT_TECH, tech_node_names
from repro.core.parameters import (
    ARM_A72,
    HIGH_PERF,
    LOW_PERF,
    AcceleratorParameters,
    CoreParameters,
    WorkloadParameters,
)
from repro.isa.instructions import CACHE_LINE_BYTES
from repro.isa.trace import Trace
from repro.isa.trace_io import load_trace_stream
from repro.sim.config import ARM_A72_SIM, HIGH_PERF_SIM, LOW_PERF_SIM, SimConfig
from repro.sim.sample import SamplingConfig, coerce_sampling

#: Core presets accepted wherever a ``core`` spec may be a string.
CORE_PRESETS: dict[str, CoreParameters] = {
    "a72": ARM_A72,
    "hp": HIGH_PERF,
    "high-perf": HIGH_PERF,
    "lp": LOW_PERF,
    "low-perf": LOW_PERF,
}

#: Simulator-config presets accepted wherever a ``config`` spec may be a string.
SIM_PRESETS: dict[str, SimConfig] = {
    "a72": ARM_A72_SIM,
    "hp": HIGH_PERF_SIM,
    "high-perf": HIGH_PERF_SIM,
    "lp": LOW_PERF_SIM,
    "low-perf": LOW_PERF_SIM,
}

#: Drain-estimator kinds accepted in ``drain`` specs.
DRAIN_KINDS = ("power_law", "explicit", "balanced_window")


class RequestError(ValueError):
    """A client error in a service request (rendered as HTTP 400).

    Attributes:
        field: dotted path of the offending request field, when known.
    """

    def __init__(self, message: str, field: str | None = None) -> None:
        super().__init__(message)
        self.field = field

    def to_payload(self) -> dict[str, Any]:
        """The structured error body the service returns."""
        payload: dict[str, Any] = {"error": str(self)}
        if self.field is not None:
            payload["field"] = self.field
        return payload


def _require_mapping(spec: Any, field: str) -> Mapping[str, Any]:
    if type(spec) is not dict and not isinstance(spec, Mapping):
        raise RequestError(
            f"expected an object, got {type(spec).__name__}", field=field
        )
    return spec


def finite_number(value: Any, what: str, field: str) -> float:
    """``value`` as a finite float, else a :class:`RequestError` on ``field``.

    ``json.loads`` accepts bare ``NaN``/``Infinity`` tokens, overflows
    ``1e999`` to ``inf``, and keeps huge integer literals exact, so none
    of those may reach the model or an ``int()`` conversion.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise RequestError(
            f"{what} must be a number, got {type(value).__name__}", field=field
        )
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise RequestError(f"{what} must be a finite number", field=field)
    return number


def _number(spec: Mapping[str, Any], key: str, field: str) -> float:
    try:
        value = spec[key]
    except KeyError:
        raise RequestError(f"missing required key {key!r}", field=field) from None
    if type(value) is float and math.isfinite(value):
        return value  # the common case, before any error text is built
    return finite_number(value, repr(key), f"{field}.{key}")


def _optional_number(
    spec: Mapping[str, Any], key: str, field: str
) -> float | None:
    if spec.get(key) is None:
        return None
    return _number(spec, key, field)


def parse_core(spec: Any, field: str = "core") -> CoreParameters:
    """A :class:`CoreParameters` from a preset name or parameter object."""
    if isinstance(spec, str):
        try:
            return CORE_PRESETS[spec]
        except KeyError:
            raise RequestError(
                f"unknown core preset {spec!r}; "
                f"expected one of {sorted(CORE_PRESETS)}",
                field=field,
            ) from None
    spec = _require_mapping(spec, field)
    try:
        return CoreParameters(
            ipc=_number(spec, "ipc", field),
            rob_size=int(_number(spec, "rob_size", field)),
            issue_width=int(_number(spec, "issue_width", field)),
            commit_stall=_number(spec, "commit_stall", field),
            name=str(spec.get("name", "custom")),
        )
    except ValueError as exc:
        if isinstance(exc, RequestError):
            raise
        raise RequestError(str(exc), field=field) from exc


def parse_accelerator(
    spec: Any, field: str = "accelerator"
) -> AcceleratorParameters:
    """An :class:`AcceleratorParameters` from a parameter object."""
    spec = _require_mapping(spec, field)
    try:
        return AcceleratorParameters(
            name=str(spec.get("name", "tca")),
            acceleration=_optional_number(spec, "acceleration", field),
            latency=_optional_number(spec, "latency", field),
        )
    except ValueError as exc:
        if isinstance(exc, RequestError):
            raise
        raise RequestError(str(exc), field=field) from exc


def parse_workload(spec: Any, field: str = "workload") -> WorkloadParameters:
    """A :class:`WorkloadParameters` from either accepted form.

    Accepts ``{"granularity": g, "acceleratable_fraction": a}`` (the
    paper's formulation, via
    :meth:`WorkloadParameters.from_granularity`) or
    ``{"acceleratable_fraction": a, "invocation_frequency": v}``; both
    take an optional ``drain_time``.
    """
    spec = _require_mapping(spec, field)
    drain_time = _optional_number(spec, "drain_time", field)
    try:
        if "granularity" in spec:
            return WorkloadParameters.from_granularity(
                _number(spec, "granularity", field),
                _number(spec, "acceleratable_fraction", field),
                drain_time=drain_time,
            )
        return WorkloadParameters(
            acceleratable_fraction=_number(spec, "acceleratable_fraction", field),
            invocation_frequency=_number(spec, "invocation_frequency", field),
            drain_time=drain_time,
        )
    except ValueError as exc:
        if isinstance(exc, RequestError):
            raise
        raise RequestError(str(exc), field=field) from exc


def parse_mode(spec: Any, field: str = "mode") -> TCAMode:
    """A :class:`TCAMode` from its string value (``"L_T"`` etc.)."""
    try:
        return TCAMode(spec)
    except ValueError:
        raise RequestError(
            f"unknown mode {spec!r}; "
            f"expected one of {[m.value for m in TCAMode.all_modes()]}",
            field=field,
        ) from None


def parse_modes(spec: Any, field: str = "modes") -> tuple[TCAMode, ...]:
    """A mode tuple from ``None`` (= all four), one value, or a list."""
    if spec is None:
        return TCAMode.all_modes()
    if isinstance(spec, str):
        return (parse_mode(spec, field),)
    if not isinstance(spec, (list, tuple)) or not spec:
        raise RequestError(
            "modes must be a mode string or a non-empty list of them",
            field=field,
        )
    try:
        return tuple(map(TCAMode, spec))
    except ValueError:
        pass
    return tuple(
        parse_mode(item, f"{field}[{i}]") for i, item in enumerate(spec)
    )


def parse_drain(spec: Any, field: str = "drain") -> DrainEstimator | None:
    """A drain estimator from its spec (``None`` = the model default).

    Specs are ``{"kind": "power_law", "beta"?, "scale"?}``,
    ``{"kind": "explicit", "cycles"}``, or
    ``{"kind": "balanced_window", "beta"?}``.
    """
    if spec is None:
        return None
    spec = _require_mapping(spec, field)
    kind = spec.get("kind")
    try:
        if kind == "power_law":
            estimator = PowerLawDrain()
            return PowerLawDrain(
                beta=(
                    _number(spec, "beta", field)
                    if "beta" in spec
                    else estimator.beta
                ),
                scale=(
                    _number(spec, "scale", field)
                    if "scale" in spec
                    else estimator.scale
                ),
            )
        if kind == "explicit":
            return ExplicitDrain(_number(spec, "cycles", field))
        if kind == "balanced_window":
            if "beta" in spec:
                return BalancedWindowDrain(beta=_number(spec, "beta", field))
            return BalancedWindowDrain()
    except ValueError as exc:
        if isinstance(exc, RequestError):
            raise
        raise RequestError(str(exc), field=field) from exc
    raise RequestError(
        f"unknown drain kind {kind!r}; expected one of {DRAIN_KINDS}",
        field=f"{field}.kind",
    )


def parse_sim_config(spec: Any, field: str = "config") -> SimConfig:
    """A :class:`SimConfig` from a preset name or preset-plus-overrides.

    Accepts ``"a72"``/``"hp"``/``"lp"`` or an object
    ``{"preset": "a72", "mode"?: "L_T", "max_cycles"?: n, ...}`` where
    the overrides are any scalar :class:`SimConfig` field.  Fully custom
    configurations (functional-unit maps and all) are a library-level
    concern — build them in Python and run :func:`repro.api.simulate`
    directly.
    """
    if isinstance(spec, str):
        preset_name, overrides = spec, {}
    else:
        spec = _require_mapping(spec, field)
        overrides = dict(spec)
        preset_name = overrides.pop("preset", None)
        if not isinstance(preset_name, str):
            raise RequestError(
                "config objects need a string 'preset'", field=f"{field}.preset"
            )
    try:
        config = SIM_PRESETS[preset_name]
    except KeyError:
        raise RequestError(
            f"unknown config preset {preset_name!r}; "
            f"expected one of {sorted(SIM_PRESETS)}",
            field=field,
        ) from None
    mode_spec = overrides.pop("mode", None)
    if mode_spec is not None:
        config = config.with_mode(parse_mode(mode_spec, f"{field}.mode"))
    if overrides:
        import dataclasses

        valid = {
            f.name
            for f in dataclasses.fields(SimConfig)
            if f.name not in ("functional_units", "tca_mode")
        }
        unknown = set(overrides) - valid
        if unknown:
            raise RequestError(
                f"unknown config override(s) {sorted(unknown)}", field=field
            )
        try:
            config = dataclasses.replace(config, **overrides)
        except (TypeError, ValueError) as exc:
            raise RequestError(str(exc), field=field) from exc
    return config


def parse_trace(spec: Any, field: str = "trace") -> Trace:
    """A :class:`Trace` from line-delimited ``repro-trace`` JSON text.

    The wire format is exactly what :func:`repro.isa.trace_io.save_trace`
    writes — clients serialize with ``dump_trace`` and send the text.
    """
    if not isinstance(spec, str) or not spec.strip():
        raise RequestError(
            "trace must be non-empty line-delimited repro-trace text "
            "(see repro.isa.trace_io.dump_trace)",
            field=field,
        )
    try:
        return load_trace_stream(io.StringIO(spec))
    except (ValueError, KeyError, TypeError) as exc:
        raise RequestError(f"malformed trace: {exc}", field=field) from exc


#: Bound on every warm-range value, as on every trace value (see
#: :mod:`repro.sim.compile`): line addresses are int64 in the kernel.
WARM_VALUE_LIMIT = 1 << 62

#: Bound on the cache lines one run's warm ranges may touch: 64 MiB of
#: warm data, 128 times the presets' 512 KiB L2.  Every line becomes a
#: Python int and an int64 before the run starts.
MAX_WARM_LINES = 1 << 20


def parse_warm_ranges(
    spec: Any, field: str = "warm_ranges"
) -> list[tuple[int, int]] | None:
    """Cache warm-up ranges from ``[[addr, size], ...]`` (or ``None``).

    Each value must be an integer within ±2**62, and the ranges together
    may touch at most :data:`MAX_WARM_LINES` cache lines.
    """
    if spec is None:
        return None
    if not isinstance(spec, (list, tuple)):
        raise RequestError(
            "warm_ranges must be a list of [addr, size] pairs", field=field
        )
    ranges: list[tuple[int, int]] = []
    lines = 0
    for i, pair in enumerate(spec):
        if (
            not isinstance(pair, (list, tuple))
            or len(pair) != 2
            or any(
                isinstance(v, bool)
                or not isinstance(v, int)
                or not -WARM_VALUE_LIMIT < v < WARM_VALUE_LIMIT
                for v in pair
            )
        ):
            raise RequestError(
                "each warm range must be an [addr, size] pair of integers "
                "within ±2**62",
                field=f"{field}[{i}]",
            )
        addr, size = pair
        if size > 0:
            last = (addr + size - 1) // CACHE_LINE_BYTES
            lines += last - addr // CACHE_LINE_BYTES + 1
            if lines > MAX_WARM_LINES:
                raise RequestError(
                    f"warm ranges may touch at most {MAX_WARM_LINES} "
                    "cache lines in total",
                    field=f"{field}[{i}]",
                )
        ranges.append((addr, size))
    return ranges


def parse_sampling(
    spec: Any, field: str = "sampling"
) -> SamplingConfig | None:
    """A :class:`~repro.sim.sample.SamplingConfig` from a request field.

    Accepts ``None`` (exact simulation, no sampling requested), the
    strings ``"exact"``/``"sampled"`` or a ``key=value`` spec string
    (see :func:`repro.sim.sample.parse_sampling_spec`), or an object of
    :class:`SamplingConfig` fields; unknown keys and invalid values are
    rejected with the offending field path.
    """
    if spec is None:
        return None
    if not isinstance(spec, (str, Mapping)):
        raise RequestError(
            "sampling must be a string mode/spec or an object of "
            "sampling fields (mode/interval/period/warmup/head/"
            "min_instructions/min_windows)",
            field=field,
        )
    try:
        return coerce_sampling(spec)
    except (ValueError, TypeError) as exc:
        raise RequestError(f"bad sampling config: {exc}", field=field) from exc


#: Upper bound on one generated axis — two maxed axes give a 10-billion
#: cell lattice per panel, far beyond anything the service should accept.
MAX_AXIS_POINTS = 100_000


def parse_axis(spec: Any, field: str = "axis") -> tuple[float, ...]:
    """A sweep-axis value tuple from a list or a generator object.

    Accepts an explicit non-empty number list, or a compact range spec
    ``{"start": lo, "stop": hi, "num": n, "space"?: "linear"|"log"}`` so
    a million-point request ships a few numbers, not a million.  Log
    spacing requires strictly positive endpoints.
    """
    if isinstance(spec, (list, tuple)):
        if not spec:
            raise RequestError("axis list must be non-empty", field=field)
        return tuple(
            finite_number(v, "axis entry", f"{field}[{i}]")
            for i, v in enumerate(spec)
        )
    spec = _require_mapping(spec, field)
    start = _number(spec, "start", field)
    stop = _number(spec, "stop", field)
    num = int(_number(spec, "num", field))
    if not 1 <= num <= MAX_AXIS_POINTS:
        raise RequestError(
            f"num must be between 1 and {MAX_AXIS_POINTS}",
            field=f"{field}.num",
        )
    space = spec.get("space", "linear")
    if space == "linear":
        values = np.linspace(start, stop, num)
    elif space == "log":
        if start <= 0 or stop <= 0:
            raise RequestError(
                "log-spaced axes need positive start and stop", field=field
            )
        values = np.geomspace(start, stop, num)
    else:
        raise RequestError(
            f"unknown axis space {space!r}; expected 'linear' or 'log'",
            field=f"{field}.space",
        )
    return tuple(float(v) for v in values)


def parse_tech(spec: Any, field: str = "tech") -> tuple[str, ...]:
    """Technology-node names from ``None`` (= reference), one, or a list."""
    if spec is None:
        return (DEFAULT_TECH,)
    if isinstance(spec, str):
        spec = [spec]
    if not isinstance(spec, (list, tuple)) or not spec:
        raise RequestError(
            "tech must be a node name or a non-empty list of them",
            field=field,
        )
    known = tech_node_names()
    names = []
    for i, name in enumerate(spec):
        if not isinstance(name, str) or name not in known:
            raise RequestError(
                f"unknown tech node {name!r}; expected one of {list(known)}",
                field=f"{field}[{i}]",
            )
        names.append(name)
    return tuple(names)


def parse_energy(spec: Any, field: str = "energy") -> EnergyParameters:
    """An :class:`EnergyParameters` from an object of overrides.

    ``None`` gives the defaults; objects may set any subset of the four
    fields (``core_static_power``/``core_dynamic_energy``/
    ``accelerator_invocation_energy``/``accelerator_static_power``).
    """
    if spec is None:
        return EnergyParameters()
    spec = _require_mapping(spec, field)
    defaults = EnergyParameters()
    known = set(defaults.to_canonical_dict())
    unknown = set(spec) - known
    if unknown:
        raise RequestError(
            f"unknown energy field(s) {sorted(unknown)}; "
            f"expected a subset of {sorted(known)}",
            field=field,
        )
    try:
        return EnergyParameters(
            **{
                key: _number(spec, key, field)
                for key in known
                if key in spec
            }
        )
    except ValueError as exc:
        if isinstance(exc, RequestError):
            raise
        raise RequestError(str(exc), field=field) from exc


def parse_pareto_sweep(spec: Mapping[str, Any]) -> tuple[ParetoSweepSpec, bool]:
    """A ``kind: "pareto"`` ``/sweep`` request as a sweep spec.

    Request shape: ``cores`` (list of core specs, or a single ``core``),
    ``accelerator``, ``fractions``/``frequencies`` axes (lists or range
    objects, see :func:`parse_axis`), plus optional ``modes``, ``tech``,
    ``energy``, ``drain``, ``block_size``, and ``stream`` (default true:
    the response is chunked NDJSON).

    Returns:
        ``(spec, stream)``.
    """
    if "cores" in spec:
        raw_cores = spec["cores"]
        if not isinstance(raw_cores, (list, tuple)) or not raw_cores:
            raise RequestError(
                "cores must be a non-empty list", field="cores"
            )
        cores = tuple(
            parse_core(core, f"cores[{i}]")
            for i, core in enumerate(raw_cores)
        )
    else:
        cores = (parse_core(spec.get("core")),)
    block_size = spec.get("block_size", DEFAULT_BLOCK_SIZE)
    if (
        isinstance(block_size, bool)
        or not isinstance(block_size, int)
        or block_size < 1
    ):
        raise RequestError(
            "block_size must be a positive integer", field="block_size"
        )
    stream = spec.get("stream", True)
    if not isinstance(stream, bool):
        raise RequestError("stream must be a boolean", field="stream")
    try:
        sweep_spec = ParetoSweepSpec(
            cores=cores,
            accelerator=parse_accelerator(spec.get("accelerator")),
            fractions=parse_axis(spec.get("fractions"), "fractions"),
            frequencies=parse_axis(spec.get("frequencies"), "frequencies"),
            modes=parse_modes(spec.get("modes", spec.get("mode"))),
            tech=parse_tech(spec.get("tech")),
            energy=parse_energy(spec.get("energy")),
            drain_estimator=parse_drain(spec.get("drain")),
            block_size=block_size,
        )
    except ValueError as exc:
        if isinstance(exc, RequestError):
            raise
        raise RequestError(str(exc), field="request") from exc
    return sweep_spec, stream


def iter_queries(payload: Any) -> Iterable[tuple[int | None, Mapping[str, Any]]]:
    """The query objects of an ``/evaluate`` payload, with their indices.

    Accepts either a single query object or ``{"queries": [...]}``;
    yields ``(index, query)`` where ``index`` is ``None`` for the
    single-query form (used to build field paths in errors).
    """
    payload = _require_mapping(payload, "request")
    if "queries" in payload:
        queries = payload["queries"]
        if not isinstance(queries, (list, tuple)) or not queries:
            raise RequestError(
                "queries must be a non-empty list", field="queries"
            )
        for i, query in enumerate(queries):
            yield i, _require_mapping(query, f"queries[{i}]")
    else:
        yield None, payload
