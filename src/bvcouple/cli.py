"""Command-line interface for the verification harness.

Commands::

    bvcouple verify lemma        bond-volume integral identity spot checks
    bvcouple verify ghost-forces equilibrium residual at homogeneous states
    bvcouple verify gradient     analytic gradient vs central differences
    bvcouple verify coverings    torus tilings by bond volumes
    bvcouple sweep consistency   atomistic vs Cauchy-Born energy gap in eps
    bvcouple solve               steepest-descent minimization demo

Exit codes: 0 all checks passed, 1 a check failed (or an expected-fail
control fired), 2 invalid usage or configuration.
"""
from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .harness import ConfigError, config_from_dict, default_config, load_config, run


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bvcouple",
        description="Verification harness for atomistic/continuum coupling energies.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON configuration file (default: built-in demo)")
    common.add_argument("--seed", type=int, help="override the run seed")
    common.add_argument(
        "--deterministic", action="store_true",
        help="accepted for compatibility and changes nothing: every command is "
        "already deterministic (byte-identical reports for a fixed seed)",
    )
    common.add_argument("--out", help="report output directory")

    model_opt = argparse.ArgumentParser(add_help=False)
    model_opt.add_argument("--model", help="override the configured model selector")

    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run a verification suite")
    vsub = verify.add_subparsers(dest="check", required=True)
    vsub.add_parser("lemma", parents=[common], help="bond-volume integral identity")
    vsub.add_parser(
        "ghost-forces", parents=[common, model_opt],
        help="gradient residual at homogeneous deformations",
    )
    vsub.add_parser(
        "gradient", parents=[common, model_opt],
        help="finite-difference check of analytic gradients",
    )
    vsub.add_parser("coverings", parents=[common], help="bond-volume torus tilings")

    sweep = sub.add_parser("sweep", help="run a parameter sweep")
    ssub = sweep.add_subparsers(dest="sweep_kind", required=True)
    ssub.add_parser(
        "consistency", parents=[common],
        help="atomistic vs Cauchy-Born energy gap across lattice spacings",
    )

    sub.add_parser("solve", parents=[common, model_opt], help="minimize the configured model")
    return parser


def _command_name(args: argparse.Namespace) -> str:
    if args.command == "verify":
        return f"verify-{args.check}"
    if args.command == "sweep":
        return f"sweep-{args.sweep_kind}"
    return "solve"


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors; normalize others
        return int(exc.code) if isinstance(exc.code, int) else 2

    try:
        if args.config:
            config = load_config(args.config)
        else:
            config = default_config()
        overrides = {}
        if args.seed is not None:
            overrides["seed"] = args.seed
        if args.deterministic:
            overrides["deterministic"] = True
        if args.out is not None:
            overrides["out"] = args.out
        if getattr(args, "model", None):
            overrides["model"] = args.model
        if overrides:
            data = dict(config.raw)
            data.update(overrides)
            config = config_from_dict(data)
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        for message in exc.messages:
            print(f"config error: {message}", file=sys.stderr)
        return 2

    return run(_command_name(args), config, out_dir=config.out)


if __name__ == "__main__":
    raise SystemExit(main())
