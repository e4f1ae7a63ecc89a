"""Command-line front end.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 validation ran but was degraded (artifacts are still written).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import (
    InvalidConfigurationError,
    InvalidInputError,
    NumericalFailureError,
    TclFlexError,
)
from .scenario import PRESETS, SUBCOMMANDS, resolve_config, run, write_effective_config
from .validation import SHORTFALL_WARN_FRACTION

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_DEGRADED = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tclflex",
        description="Fleet flexibility toolkit: bin models, reach-and-hold "
        "frontiers, fleet aggregation, and micro-simulation cross-checks.",
    )
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", type=Path, default=None, help="JSON scenario config")
    parser.add_argument(
        "--preset",
        choices=sorted(PRESETS),
        default=None,
        help="named study config (alternative to --config)",
    )
    parser.add_argument("--out", type=Path, default=Path("out"), help="artifact directory")
    parser.add_argument(
        "--methods",
        default=None,
        help="comma list restricting reachhold methods, e.g. inner,outer",
    )
    parser.add_argument(
        "--seed-override",
        type=int,
        default=None,
        help="replace every seed in the scenario with this value",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    methods = args.methods.split(",") if args.methods else None
    try:
        cfg = resolve_config(
            args.subcommand,
            config_path=args.config,
            preset=args.preset,
            methods=methods,
            seed_override=args.seed_override,
        )
    except (TclFlexError, OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    args.out.mkdir(parents=True, exist_ok=True)
    echo = write_effective_config(cfg, args.out)
    try:
        artifacts, degraded = run(args.subcommand, cfg, args.out)
    except NumericalFailureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (InvalidConfigurationError, InvalidInputError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    print(f"effective_config: {echo}")
    for name in sorted(artifacts):
        print(f"{name}: {artifacts[name]}")
    if degraded:
        print(
            f"validation degraded: actuation shortfall exceeded {SHORTFALL_WARN_FRACTION:.0%} of requests",
            file=sys.stderr,
        )
        return EXIT_DEGRADED
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
