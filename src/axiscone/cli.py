"""Command-line front end for the experiment harness.

Exit codes: 0 all checks passed, 1 a theorem-contract check failed (that is
an implementation bug, the underlying statements are theorems), 2 config or
usage error.
"""

import argparse
import sys

from .errors import AxisConeError, ConfigInvalid, ContractViolation
from .harness import ExperimentConfig, check_seed, replay, run, selftest

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_CONFIG = 2

_SUBCOMMAND_KINDS = {
    "verify": ("pf_verify", "cone_axioms"),
    "perturb": ("perturb_sweep",),
    "schrodinger": ("schrodinger",),
}


def _add_common(parser, with_kind=None, with_config=True):
    if with_config:
        parser.add_argument("--config", metavar="PATH",
                            help="JSON experiment config (defaults are built in)")
    parser.add_argument("--seed", type=int, metavar="N",
                        help="override the config seed")
    parser.add_argument("--out", metavar="PATH", help="write the report here")
    parser.add_argument("--no-timestamp", action="store_true",
                        help="omit the timestamp header line (byte-reproducible output)")
    if with_kind:
        parser.add_argument("--kind", choices=with_kind, default=with_kind[0],
                            help="config kind when no --config is given")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="axiscone",
        description="Verify positivity, ergodicity, and perturbation bounds "
                    "of symmetric operators on axis cones.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="cone axioms and positivity verdicts")
    _add_common(p_verify, with_kind=_SUBCOMMAND_KINDS["verify"])

    p_perturb = sub.add_parser("perturb", help="spectral-gap budget and kappa sweep")
    _add_common(p_perturb)

    p_schrod = sub.add_parser("schrodinger", help="discrete magnetic Hamiltonian pipeline")
    _add_common(p_schrod)

    p_replay = sub.add_parser("replay", help="re-check CertifiedFalse witnesses of a report")
    p_replay.add_argument("report", metavar="REPORT", help="report file to replay")

    p_self = sub.add_parser("selftest", help="run the acceptance criteria")
    _add_common(p_self, with_config=False)   # the criteria build their own inputs
    p_self.add_argument("--repeat", action="store_true",
                        help="run twice and require byte-identical reports")
    return parser


def _config_for(args, command):
    kinds = _SUBCOMMAND_KINDS[command]
    if not args.config:
        seed = 0 if args.seed is None else args.seed
        return ExperimentConfig(kind=getattr(args, "kind", kinds[0]), seed=seed, params={})
    config = ExperimentConfig.load(args.config)
    if config.kind not in kinds:
        raise ConfigInvalid("kind", f"subcommand {command} accepts {', '.join(kinds)}")
    if args.seed is not None:
        check_seed(args.seed)
        config.seed = args.seed
    return config


def _emit(report, args):
    text = report.render(timestamp=not args.no_timestamp)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK if report.passed else EXIT_VIOLATION


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command in _SUBCOMMAND_KINDS:
            config = _config_for(args, args.command)
            report = run(config)
            if config.output_path and not args.out:
                args.out = config.output_path
            return _emit(report, args)

        if args.command == "replay":
            with open(args.report, encoding="utf-8") as fh:
                kind, results = replay(fh.read())
            if kind != "pf_verify":
                print(f"replay supports pf_verify reports only; this report is {kind}")
                return EXIT_OK
            if not results:
                print("no CertifiedFalse rows to replay")
                return EXIT_OK
            bad = [r for r in results if not r.reproduced]
            for r in results:
                state = "reproduced" if r.reproduced else "FAILED to reproduce"
                print(f"row {r.row_index} ({r.predicate}): {state}")
            return EXIT_OK if not bad else EXIT_VIOLATION

        if args.command == "selftest":
            report = selftest(args.seed or 0)
            for row in report.rows:
                print(f"criterion {row[0]} {row[1]}: {row[2]}", file=sys.stderr)
            code = _emit(report, args)
            if args.repeat:
                again = selftest(args.seed or 0)
                if again.render(timestamp=False) != report.render(timestamp=False):
                    print("determinism check FAILED: reports differ", file=sys.stderr)
                    return EXIT_VIOLATION
                print("determinism check passed: byte-identical reports",
                      file=sys.stderr)
            return code
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, UnicodeDecodeError) as exc:
        # a missing, unreadable or unwritable path, or a file that is not UTF-8
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ContractViolation as exc:
        # a proven inequality failed numerically: that is a toolkit bug
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except AxisConeError as exc:
        # ill-posed experiment input (degenerate model, collapsed gap, ...)
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
