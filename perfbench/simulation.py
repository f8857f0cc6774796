"""The in-process workloads: cold simulation and warm model validation.

``simulate-cold`` generates a fresh program per operation and simulates
its accelerated trace through :func:`repro.api.simulate`, so every
operation pays trace build, compile, pack, kernel and stats.
``validate-warm`` runs the paper's §V flow
(:func:`repro.core.validation.validate_workload`) on five programs ×
three cores built and compiled once in set-up; it is where the model's
error against the simulator is measured.
"""

from __future__ import annotations

import functools
import json
import random
import resource
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Iterator

from harness import HostSpeed, Op, Pass, add_self_times, child_setup_s
from repro import api
from repro.core.model import TCAModel
from repro.core.modes import TCAMode
from repro.core.validation import validate_workload
from repro.isa.trace import Trace
from repro.obs.span import request_scope, span
from repro.sim import backend, simulator
from repro.sim.compile import compile_trace
from repro.sim.config import ARM_A72_SIM, HIGH_PERF_SIM, LOW_PERF_SIM, SimConfig
from repro.sim.core import CoreSim
from repro.workloads import (
    HashMapWorkloadSpec,
    HeapWorkloadSpec,
    RegexWorkloadSpec,
    StringWorkloadSpec,
    SyntheticSpec,
    generate_hashmap_program,
    generate_heap_program,
    generate_regex_program,
    generate_string_program,
    generate_synthetic_program,
)

#: The program generators the simulator workloads rotate over.
GENERATORS = {
    "heap": (HeapWorkloadSpec, generate_heap_program),
    "hashmap": (HashMapWorkloadSpec, generate_hashmap_program),
    "regex": (RegexWorkloadSpec, generate_regex_program),
    "strings": (StringWorkloadSpec, generate_string_program),
    "synthetic": (SyntheticSpec, generate_synthetic_program),
}
CONFIGS = (HIGH_PERF_SIM, LOW_PERF_SIM, ARM_A72_SIM)

#: The simulator backend the baselines were measured with.  ``auto``
#: picks it when a C compiler is present; a run on any other fails,
#: since its timings would not compare.
EXPECTED_BACKEND = "c"

#: Span names of the in-process traced passes, by layer.  ``sim.run`` is
#: the simulator's own span around building and running a CoreSim; the
#: wrapped ``CoreSim.run`` inside it leaves construction as its self time.
SIM_LAYERS = {
    name: name
    for name in (
        "workloads.build",
        "sim.compile",
        "sim.backend.pack",
        "api.simulate",
        "sim.stats.to_dict",
        "core.validation",
        "sim.simulator.modes",
        "sim.core.run",
        "core.model.speedup",
    )
}
SIM_LAYERS["sim.run"] = "sim.core.init"


def build_program(generator: str, seed: int | None) -> Any:
    """A generator's program from its default spec, or with ``seed``."""
    spec_type, generate = GENERATORS[generator]
    return generate(spec_type() if seed is None else spec_type(seed=seed))


def warm_ranges(trace: Trace) -> Any:
    """The cache-warming ranges the generator recorded, if any."""
    return trace.metadata.get("warm_ranges")


def canonical(stats: dict[str, Any]) -> str:
    """Order-independent JSON text, for byte-exact comparison."""
    return json.dumps(stats, sort_keys=True)


@contextmanager
def python_engine() -> Iterator[None]:
    """Run the pure-Python simulator loop (the oracle) inside the block."""
    backend.set_backend("python")
    try:
        yield
    finally:
        backend.set_backend(None)
        backend.effective_backend()  # resolve now, not in the next timed op


@contextmanager
def layer_spans() -> Iterator[None]:
    """Open a span around each library layer timed inside a larger call.

    ``validate_workload`` looks ``simulate_modes`` up at call time, so
    replacing the module attribute reaches it.
    """
    saved = (CoreSim.run, simulator.simulate_modes, TCAModel.speedup)

    def timed(name: str, fn: Any) -> Any:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with span(name):
                return fn(*args, **kwargs)

        return wrapper

    CoreSim.run = timed("sim.core.run", saved[0])
    simulator.simulate_modes = timed("sim.simulator.modes", saved[1])
    TCAModel.speedup = timed("core.model.speedup", saved[2])
    try:
        yield
    finally:
        CoreSim.run, simulator.simulate_modes, TCAModel.speedup = saved


def ns_per_inst(traced: Pass) -> float:
    """Kernel host nanoseconds per simulated instruction."""
    ops = traced.good
    seconds = sum(op.layers.get("sim.core.run", 0.0) for op in ops)
    return 1e9 * seconds / sum(op.work for op in ops)


class InProcessWorkload:
    """A workload whose operations run in the benchmark process."""

    name = ""
    #: CPUs host probes run on: wherever this process runs.
    cpus: tuple[int, ...] = ()

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rss_mb = 0.0
        self.properties: dict[str, Any] = {}
        self._ready = False

    def fresh_setup_s(self) -> float:
        """Seconds a fresh process takes to import and set this workload up."""
        return child_setup_s(self.name, self.seed)

    def prepare(self) -> None:
        """Set up in this process, once."""
        if not self._ready:
            self.setup()
            self._ready = True

    def reset(self) -> None:
        """Nothing to reset: a replay meets the same in-process state."""

    def close(self) -> None:
        """Nothing to release."""

    def peak_rss_mb(self) -> float:
        """This process's resident-memory high-water mark after the loop."""
        return self.rss_mb

    def busy_s(self, run: Pass) -> float:
        """Host seconds spent inside the operations."""
        return sum(op.latency_s for op in run.good)

    def model_error(self) -> tuple[float, float]:
        """Max and mean model error over the validation suite."""
        return model_error(Suite().records)

    def run(
        self, seconds: float | None = None, count: int | None = None,
        traced: bool = False,
    ) -> Pass:
        """One pass: operations until the time or count runs out, then checks."""
        run = Pass()
        host = HostSpeed()
        self.begin()
        started = perf_counter()
        index = 0
        with layer_spans() if traced else nullcontext():
            while (count is None or index < count) and (
                seconds is None or perf_counter() - started < seconds
            ):
                host.maybe_probe()
                self.operate(run, index, traced)
                index += 1
        run.elapsed_s = perf_counter() - started
        self.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self.check(run)
        host.normalize(run)
        return run

    def setup(self) -> None:
        """Prepare for the timed passes."""
        raise NotImplementedError

    def begin(self) -> None:
        """Reset per-pass bookkeeping."""

    def operate(self, run: Pass, index: int, traced: bool) -> None:
        """Run (and record) operation ``index``."""
        raise NotImplementedError

    def check(self, run: Pass) -> None:
        """Oracle checks left for after the loop."""


# ------------------------------------------------------------ simulate-cold


class SimulateCold(InProcessWorkload):
    """``simulate-cold``: a fresh program per operation, simulated once."""

    name = "simulate-cold"

    def inputs(self, index: int, label: str = "simulate") -> tuple[str, int, SimConfig]:
        """Generator, program seed and core of operation ``index``."""
        generator = tuple(GENERATORS)[index % len(GENERATORS)]
        config = CONFIGS[index // len(GENERATORS) % len(CONFIGS)]
        seed = random.Random(f"{label}/{self.seed}/{index}").randrange(1, 2**31)
        return generator, seed, config

    def setup(self) -> None:
        """Load the kernel and run each generator once on warm-up seeds."""
        backend.effective_backend()
        for index in range(len(GENERATORS)):
            generator, seed, config = self.inputs(index, "simulate-warmup")
            accelerated = build_program(generator, seed).accelerated()
            api.simulate(accelerated, config, warm_ranges=warm_ranges(accelerated))

    def begin(self) -> None:
        """Start a fresh generator mix."""
        self.mix = {name: {"ops": 0, "instructions": 0} for name in GENERATORS}

    def operate(self, run: Pass, index: int, traced: bool) -> None:
        """Build, simulate and serialize one fresh program; then check it
        byte-for-byte against the pure-Python engine, untimed."""
        generator, seed, config = self.inputs(index)
        started = perf_counter()
        if traced:
            with request_scope(f"perfbench.{self.name}") as trace:
                with span("workloads.build"):
                    accelerated = build_program(generator, seed).accelerated()
                with span("sim.compile"):
                    compiled = compile_trace(accelerated)
                with span("sim.backend.pack"):
                    backend.get_packed(compiled)
                with span("api.simulate"):
                    result = api.simulate(
                        accelerated, config, warm_ranges=warm_ranges(accelerated)
                    )
                with span("sim.stats.to_dict"):
                    stats = result.stats.to_dict()
        else:
            accelerated = build_program(generator, seed).accelerated()
            result = api.simulate(
                accelerated, config, warm_ranges=warm_ranges(accelerated)
            )
            stats = result.stats.to_dict()
        latency = perf_counter() - started
        op = Op(index, started, latency, latency, work=stats["instructions"])
        run.ops.append(op)
        if traced:
            op.trace = trace
            add_self_times(op.layers, trace.root.to_dict(), SIM_LAYERS)
        self.mix[generator]["ops"] += 1
        self.mix[generator]["instructions"] += stats["instructions"]
        with python_engine():
            expected = api.simulate(
                accelerated, config, warm_ranges=warm_ranges(accelerated)
            ).stats.to_dict()
        if canonical(stats) != canonical(expected):
            run.fail(
                op,
                f"{generator} seed {seed} on {config.name}: "
                "SimStats differ from the python engine",
            )

    def check(self, run: Pass) -> None:
        """Record the generator mix with mean instruction counts."""
        self.properties = {
            "mix": {
                name: {
                    "ops": entry["ops"],
                    "mean_instructions": entry["instructions"] / entry["ops"],
                }
                for name, entry in self.mix.items()
                if entry["ops"]
            }
        }

    def layer_extras(self, traced: Pass) -> dict[str, float]:
        """Kernel nanoseconds per simulated instruction."""
        return {"sim.core.ns_per_inst": ns_per_inst(traced)}


# ------------------------------------------------------------ validate-warm


@dataclass
class Pair:
    """One program on one core: a validation unit."""

    generator: str
    baseline: Trace
    accelerated: Trace
    config: SimConfig

    @property
    def instructions(self) -> int:
        """Instructions one validation simulates: baseline plus four modes."""
        return len(self.baseline) + len(TCAMode.all_modes()) * len(self.accelerated)


def validate(pair: Pair) -> tuple[tuple[str, float, float], ...]:
    """``(mode, model speedup, simulated speedup)`` per mode for ``pair``."""
    report = validate_workload(
        pair.baseline, pair.accelerated, pair.config,
        warm_ranges=warm_ranges(pair.baseline),
    )
    return tuple(
        (record.mode.value, record.model_speedup, record.sim_speedup)
        for record in report.records
    )


class Suite:
    """Five programs × three cores, built and compiled once.

    Programs use each generator's default spec, so the suite, and the
    model error measured on it, is the same in every run.
    """

    def __init__(self) -> None:
        self.pairs: list[Pair] = []
        for generator in GENERATORS:
            program = build_program(generator, None)
            accelerated = program.accelerated()
            for trace in (program.baseline, accelerated):
                backend.get_packed(compile_trace(trace))
            self.pairs.extend(
                Pair(generator, program.baseline, accelerated, config)
                for config in CONFIGS
            )
        #: Each pair's records from a first, warm-up validation.
        self.records = [validate(pair) for pair in self.pairs]


def model_error(records: list[tuple[tuple[str, float, float], ...]]) -> tuple[float, float]:
    """Max and mean of |model − sim| / sim over every record, in percent."""
    errors = [
        abs(model - sim) / sim * 100.0
        for pair_records in records
        for _, model, sim in pair_records
    ]
    return max(errors), sum(errors) / len(errors)


class ValidateWarm(InProcessWorkload):
    """``validate-warm``: the §V validation flow on memoized traces."""

    name = "validate-warm"

    def setup(self) -> None:
        """Build the suite and fix a seeded order over its pairs."""
        self.suite = Suite()
        self.compiled = [
            (compile_trace(pair.baseline), compile_trace(pair.accelerated))
            for pair in self.suite.pairs
        ]
        self.order = list(range(len(self.suite.pairs)))
        random.Random(f"validate/{self.seed}").shuffle(self.order)
        self._engine_problems: dict[int, str | None] = {}

    def model_error(self) -> tuple[float, float]:
        """Max and mean model error over the suite every operation matched."""
        return model_error(self.suite.records)

    def begin(self) -> None:
        """Reset the compile-memo probe counts."""
        self.memo_hits = self.memo_probes = 0

    def pair_index(self, index: int) -> int:
        """The suite pair operation ``index`` validates."""
        return self.order[index % len(self.order)]

    def operate(self, run: Pass, index: int, traced: bool) -> None:
        """One validate_workload call; its records must equal the suite's."""
        k = self.pair_index(index)
        pair = self.suite.pairs[k]
        started = perf_counter()
        if traced:
            with request_scope(f"perfbench.{self.name}") as trace:
                with span("core.validation"):
                    records = validate(pair)
        else:
            records = validate(pair)
        latency = perf_counter() - started
        op = Op(index, started, latency, latency, work=pair.instructions)
        run.ops.append(op)
        if traced:
            op.trace = trace
            add_self_times(op.layers, trace.root.to_dict(), SIM_LAYERS)
            self.memo_probes += 2
            self.memo_hits += sum(
                compile_trace(source) is memo
                for source, memo in zip(
                    (pair.baseline, pair.accelerated), self.compiled[k]
                )
            )
        if records != self.suite.records[k]:
            run.fail(op, f"{pair.generator} on {pair.config.name}: records changed")

    def check(self, run: Pass) -> None:
        """Every pair's SimStats must match the pure-Python engine."""
        for op in run.ops:
            problem = self._engine_problem(self.pair_index(op.index))
            if problem:
                run.fail(op, problem)
        self.properties = {"pairs": len(self.suite.pairs)}
        if self.memo_probes:
            self.properties["compile_memo_hit_ratio"] = self.memo_hits / self.memo_probes

    def _engine_problem(self, k: int) -> str | None:
        if k not in self._engine_problems:
            pair = self.suite.pairs[k]
            args = (pair.baseline, pair.accelerated, pair.config)
            native = simulator.simulate_modes(*args, warm_ranges=warm_ranges(pair.baseline))
            with python_engine():
                oracle = simulator.simulate_modes(
                    *args, warm_ranges=warm_ranges(pair.baseline)
                )
            problem = None
            for mode, result in [(None, oracle.baseline), *oracle.per_mode.items()]:
                got = native.baseline if mode is None else native.per_mode[mode]
                if canonical(got.stats.to_dict()) != canonical(result.stats.to_dict()):
                    problem = f"{pair.generator} on {pair.config.name}: SimStats differ"
            for mode, _, sim in self.suite.records[k]:
                if oracle.speedup(TCAMode(mode)) != sim:
                    problem = f"{pair.generator} on {pair.config.name}: {mode} speedup differs"
            self._engine_problems[k] = problem
        return self._engine_problems[k]

    def layer_extras(self, traced: Pass) -> dict[str, float]:
        """Compile-memo hit ratio and kernel nanoseconds per instruction."""
        return {
            "sim.compile.memo_hit_ratio": self.memo_hits / self.memo_probes,
            "sim.core.ns_per_inst": ns_per_inst(traced),
        }
