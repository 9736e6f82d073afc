"""Command-line interface for the verification harness.

Commands::

    bvcouple verify lemma        bond-volume identity over the staircase simplices
    bvcouple verify ghost-forces equilibrium residual at homogeneous states
    bvcouple verify gradient     analytic gradient vs central differences
    bvcouple verify coverings    torus tilings by bond volumes
    bvcouple sweep consistency   atomistic vs Cauchy-Born energy gap in eps
    bvcouple solve               preconditioned L-BFGS minimization

Exit codes: 0 all checks passed, 1 a check failed (or an expected-fail
control fired), 2 invalid usage or configuration.
"""
from __future__ import annotations

import argparse
import copy
import locale  # noqa: F401  argparse's gettext imports it when a parser is first built
import sys
from typing import Sequence

from .harness import DEFAULT_CONFIG, ConfigError, _read_config_json, config_from_dict, run


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bvcouple",
        description="Verification harness for atomistic/continuum coupling energies.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON configuration file (default: built-in demo)")
    common.add_argument("--seed", type=int, help="override the run seed")
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


def _config_error(exc: ConfigError) -> int:
    for message in exc.messages:
        print(f"config error: {message}", file=sys.stderr)
    return 2


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors; normalize others
        return int(exc.code) if isinstance(exc.code, int) else 2

    try:
        # the overrides replace the file's values before anything is
        # validated, so an invalid value they replace is no error
        data = _read_config_json(args.config) if args.config else copy.deepcopy(DEFAULT_CONFIG)
        if isinstance(data, dict):  # config_from_dict reports any other root
            overrides = {"seed": args.seed, "out": args.out, "model": getattr(args, "model", None)}
            data.update((key, value) for key, value in overrides.items() if value is not None)
        config = config_from_dict(data)
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        return _config_error(exc)

    try:
        return run(_command_name(args), config)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:  # a command refusing the configuration (solve on coupled-ho(k > 1))
        return _config_error(exc)


if __name__ == "__main__":
    raise SystemExit(main())
