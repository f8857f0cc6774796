"""Content-addressed cache keys for model and simulator results.

A cache key must identify *what a result is a function of* and nothing
else, and it must be reproducible anywhere: across interpreter restarts,
across machines, and regardless of ``PYTHONHASHSEED``.  Keys here build
on sha256 hex digests over **canonical JSON** — keys sorted, separators
fixed, enums by value, floats via ``repr`` — of the parameter
dataclasses' :meth:`to_canonical_dict` forms, never Python ``hash()``.

Model-evaluation keys are *two-stage*, because the serving tier answers
them by the batch: everything :func:`~repro.core.model.speedup_grid`
holds fixed per call — core, accelerator, mode, drain configuration,
schema — is hashed **once** into a group digest
(:func:`evaluation_group_key`), and each query's key is that digest plus
the three per-query workload numbers, carried as a plain tuple
(:func:`evaluation_key`).  Group digests are memoized by value, so a
10k-query batch over a handful of groups — even one parsed into new
parameter objects per query — costs a handful of sha256/canonical-JSON
passes instead of 10k, which is what makes the batched path faster
than the scalar model rather than slower.  Tuples of floats hash and
compare exactly (no ``repr`` round-trip in the hot path).

Simulation keys stay single sha256 hex strings: one key per run, never
constructed by the thousand.

Every key embeds :func:`schema_tag`, which combines the package version
with the model-equation schema tag
(:data:`repro.core.model.MODEL_SCHEMA`): bumping either invalidates all
previously cached results, so a cache can never serve speedups computed
by a different model.
"""

from __future__ import annotations

import hashlib
import json
from enum import Enum
from typing import Any, Iterable, Union

from repro.core.drain import DrainEstimator, PowerLawDrain
from repro.core.model import MODEL_SCHEMA
from repro.core.modes import TCAMode
from repro.core.parameters import (
    AcceleratorParameters,
    CoreParameters,
    WorkloadParameters,
)
from repro.isa.trace import Trace
from repro.sim.config import SimConfig


def schema_tag() -> str:
    """The cache-key version tag: package version + model schema.

    Computed lazily (not at import) because :mod:`repro.serve` modules
    are importable while ``repro/__init__`` is still executing.
    """
    import repro

    version = getattr(repro, "__version__", "unknown")
    return f"{version}+{MODEL_SCHEMA}"


def _canonical_default(value: Any) -> Any:
    """``json.dumps`` fallback for the value types keys may contain."""
    if isinstance(value, Enum):
        return value.value
    if hasattr(value, "item"):  # numpy scalars
        return value.item()
    if hasattr(value, "tolist"):  # numpy arrays
        return value.tolist()
    raise TypeError(
        f"{type(value).__name__} is not canonically serializable; "
        "convert it to plain JSON types before keying"
    )


def canonical_json(payload: Any) -> str:
    """Deterministic JSON serialization for hashing.

    Dict keys are sorted, separators are fixed, enums serialize by value,
    and floats use ``repr`` (via ``json``), so equal payloads always
    produce byte-identical strings — the property sha256 keys need.
    Non-finite floats are permitted (``NaN``/``Infinity``): they only
    need to hash deterministically, not interoperate.
    """
    return json.dumps(
        payload,
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=True,
        default=_canonical_default,
    )


def sha256_key(payload: Any) -> str:
    """sha256 hex digest of :func:`canonical_json` of ``payload``."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def drain_config(estimator: DrainEstimator | None) -> dict[str, Any]:
    """Canonical config of a drain estimator (``None`` = model default)."""
    return (estimator or PowerLawDrain()).cache_config()


#: A model-evaluation cache key: the group digest plus the per-query
#: workload numbers (acceleratable fraction, invocation frequency,
#: explicit drain time or ``None``).  Hashable, picklable, and exact —
#: float equality here is bitwise, which is precisely what
#: content-addressing wants.
EvaluationKey = tuple[str, float, float, Union[float, None]]


#: Distinct group values whose digests :func:`evaluation_group_key`
#: keeps; the memo is emptied when it fills.  Far above the few hundred
#: groups a serving workload cycles through.
GROUP_KEY_MEMO_SIZE = 4096

_group_digests: dict[tuple[Any, ...], str] = {}

#: The value types :func:`exact_key` accepts: exact under equality
#: once each value's type is part of the key (and no value is zero).
_EXACT_TYPES = frozenset((str, int, float, bool, type(None)))


def evaluation_group_key(
    core: CoreParameters,
    accelerator: AcceleratorParameters,
    mode: TCAMode,
    drain_estimator: DrainEstimator | None = None,
) -> str:
    """Digest of everything a batch group holds fixed.

    Covers the core and accelerator parameters, the integration mode,
    the drain-estimator configuration, and the schema tag — exactly the
    arguments :func:`~repro.core.model.speedup_grid` fixes per call.
    The batch engine derives every query's key from it; display names
    are excluded (see the ``to_canonical_dict`` methods), so renaming a
    preset never splits the cache.

    Digests are memoized by value (up to :data:`GROUP_KEY_MEMO_SIZE`),
    so equal parameters built as new objects — one set per parsed
    request query — pay for the sha256/canonical-JSON pass once.  The
    memo never changes a digest: see :func:`exact_key`.
    """
    schema = schema_tag()
    core_part = core.to_canonical_dict()
    accelerator_part = accelerator.to_canonical_dict()
    drain_part = (
        None if drain_estimator is None else drain_config(drain_estimator)
    )
    memo_key = exact_key(
        schema, mode.value, core_part, accelerator_part, drain_part
    )
    digest = None if memo_key is None else _group_digests.get(memo_key)
    if digest is None:
        digest = sha256_key(
            {
                "kind": "evaluate",
                "schema": schema,
                "core": core_part,
                "accelerator": accelerator_part,
                "mode": mode.value,
                "drain": (
                    drain_config(None) if drain_part is None else drain_part
                ),
            }
        )
        if memo_key is not None:
            if len(_group_digests) >= GROUP_KEY_MEMO_SIZE:
                _group_digests.clear()
            _group_digests[memo_key] = digest
    return digest


def exact_key(*parts: Any) -> tuple[Any, ...] | None:
    """A memo key for JSON-like ``parts``, or ``None`` to skip the memo.

    Each part is a scalar, or a dict or list of scalars.  Two argument
    lists share a key only if they are the same JSON, which Python
    equality alone does not show: ``3``, ``3.0`` and ``True`` are equal,
    and so are ``0.0`` and ``-0.0``.  So the key carries every value's
    type, and parts holding a zero, or a value of any type outside
    :data:`_EXACT_TYPES` (a nested list, a NumPy scalar), get no key.
    Each part is flattened behind a tag and, for a dict or list, its
    length, so the flat key still tells the parts apart.
    """
    values: list[Any] = []
    for part in parts:
        kind = type(part)
        if kind is dict:
            values += ("{", len(part), *part, *part.values())
        elif kind is list:
            values += ("[", len(part), *part)
        else:
            values += (".", part)
    types = tuple(map(type, values))
    # Types first: comparing a foreign value with 0 may raise.
    if not _EXACT_TYPES.issuperset(types) or 0 in values:
        return None
    return (*values, *types)


def evaluation_key(
    core: CoreParameters,
    accelerator: AcceleratorParameters,
    workload: WorkloadParameters,
    mode: TCAMode,
    drain_estimator: DrainEstimator | None = None,
) -> EvaluationKey:
    """Content-addressed key of one model evaluation.

    Covers everything :meth:`repro.core.model.TCAModel.speedup` is a
    function of: the group digest (core, accelerator, mode, drain
    config, schema — see :func:`evaluation_group_key`) plus the
    workload's three numbers carried verbatim.  The tuple form keeps
    per-query key construction to a tuple pack when the digest is
    already in hand, which the batched hot path depends on.
    """
    return (
        evaluation_group_key(core, accelerator, mode, drain_estimator),
        float(workload.acceleratable_fraction),
        float(workload.invocation_frequency),
        None if workload.drain_time is None else float(workload.drain_time),
    )


def simulation_key(
    config: SimConfig,
    trace: Trace,
    warm_ranges: Iterable[tuple[int, int]] | None = None,
    sampling: "Any | None" = None,
) -> str:
    """Content-addressed key of one cycle-level simulation.

    Covers the full core configuration (including its TCA mode), the
    trace's content fingerprint (:meth:`repro.isa.trace.Trace.fingerprint`),
    the cache warm-up ranges, the sampling configuration, and the schema
    tag.  ``sampling`` accepts a
    :class:`~repro.sim.sample.SamplingConfig` or ``None``; exact mode —
    requested explicitly or by passing no sampling — normalizes to
    ``None`` (see :func:`repro.sim.sample.canonical_sampling`), because
    the exact engine produces byte-identical stats either way and should
    share one cache entry.
    """
    from repro.sim.sample import canonical_sampling

    return sha256_key(
        {
            "kind": "simulate",
            "schema": schema_tag(),
            "config": config.to_canonical_dict(),
            "trace": trace.fingerprint(),
            "warm_ranges": (
                None
                if warm_ranges is None
                else [[int(lo), int(hi)] for lo, hi in warm_ranges]
            ),
            "sampling": canonical_sampling(sampling),
        }
    )
