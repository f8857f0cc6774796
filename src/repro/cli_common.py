"""Shared argparse plumbing for the ``repro-*`` command-line tools.

``repro-model``, ``repro-experiments``, and ``repro-serve`` expose the
same observability surface — ``--log-level`` and ``--profile`` always,
``--jobs`` and ``--trace`` where fan-out/tracing is meaningful — with
identical flag names, defaults, and help text.  These helpers are that
single definition; a CLI calls :func:`add_common_arguments` while
building its parser, :func:`configure_from_args` right after parsing,
and :func:`maybe_print_profile` on the way out.
"""

from __future__ import annotations

import argparse

from repro.obs.log import add_log_level_argument, configure_logging
from repro.obs.metrics import get_registry


def add_common_arguments(
    parser: argparse.ArgumentParser,
    jobs: bool = False,
    trace: bool = False,
    workers: bool = False,
    sim_backend: bool = False,
) -> None:
    """Attach the standard observability flags to ``parser``.

    Always adds ``--log-level`` and ``--profile``; adds ``--jobs``,
    ``--trace``, ``--workers``, and ``--sim-backend`` when the caller
    opts in (they only make sense for tools that fan out work, run
    simulations, or serve).
    """
    add_log_level_argument(parser)
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print the metrics registry's timing/counter table on exit",
    )
    if jobs:
        parser.add_argument(
            "--jobs",
            type=int,
            default=1,
            metavar="N",
            help="worker processes for parallelizable work; per-worker "
            "metrics are merged back into this process (default: 1)",
        )
    if workers:
        parser.add_argument(
            "--workers",
            type=int,
            default=1,
            metavar="N",
            help="pre-forked server processes sharing the listening port "
            "(POSIX; each with its own caches — see docs/SERVING.md; "
            "default: 1, single process)",
        )
    if trace:
        parser.add_argument(
            "--trace",
            metavar="PATH",
            default=None,
            help="write a Chrome trace_event JSON of every simulation run "
            "(open in chrome://tracing or ui.perfetto.dev)",
        )
    if sim_backend:
        from repro.sim.backend import VALID_BACKENDS

        parser.add_argument(
            "--sim-backend",
            choices=VALID_BACKENDS,
            default=None,
            help="execution engine for the simulator hot loop: c (the "
            "compiled kernel) or python (the oracle loop); default: "
            "$REPRO_SIM_BACKEND, else auto — c when a C compiler builds "
            "the kernel, else python",
        )


def add_tech_argument(parser: argparse.ArgumentParser) -> None:
    """Attach the standard ``--tech`` technology-node flag.

    Choices come from the bundled node table
    (:func:`repro.core.tech.tech_node_names`), so a new node in
    ``core/data/tech_nodes.json`` shows up in every CLI automatically.
    """
    from repro.core.tech import DEFAULT_TECH, tech_node_names

    parser.add_argument(
        "--tech",
        choices=tech_node_names(),
        default=DEFAULT_TECH,
        help="technology node for energy/area scaling "
        "(default: %(default)s, the 45nm CMOS reference)",
    )


def configure_from_args(args: argparse.Namespace) -> None:
    """Apply the common flags right after ``parse_args``.

    Configures package logging from ``args.log_level`` and pins the
    simulator backend when ``--sim-backend`` was given; kept as the
    single hook so every CLI picks up future common setup without
    edits.
    """
    configure_logging(getattr(args, "log_level", None))
    backend_name = getattr(args, "sim_backend", None)
    if backend_name is not None:
        from repro.sim.backend import set_backend

        set_backend(backend_name)


def maybe_print_profile(args: argparse.Namespace) -> None:
    """Print the metrics table when ``--profile`` was requested."""
    if getattr(args, "profile", False):
        print(get_registry().render_table())
