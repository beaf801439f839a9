"""Command-line interface: sample / decompose / reconstruct / decay / verify.

Exit codes: 0 success, 2 schema, file or out-of-memory error, 3 density
(cut-locus) error, 4 verification failure.
"""

from __future__ import annotations

import argparse
import sys

from .errors import GeomwaveError, SchemaError, VerificationFailure
from .io import (
    open_text,
    read_pyramid,
    read_samples,
    write_decay_csv,
    write_pyramid,
    write_report,
    write_samples,
)
from .predictors import provider_from_config
from .signals import get_preset, preset_names, sample_signal
from .transform import RULES, decompose_manifold, reconstruct_manifold

__all__ = ["main", "entry"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geomwave",
        description="Interpolatory Hermite multiwavelet transforms for "
        "vector- and manifold-valued data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def predictor_flags(p):
        p.add_argument("--predictor", choices=("cubic", "exp"), default="cubic")
        p.add_argument(
            "--lambda", dest="lam", type=float, default=1.0,
            help="frequency parameter of the exponential predictor",
        )
        p.add_argument("--rule", choices=RULES, default="midpoint")

    p = sub.add_parser("sample", help="sample a preset signal to a file")
    p.add_argument("--preset", required=True, help=f"one of {preset_names()}")
    p.add_argument("--manifold", required=True, help="euclidean:<m>, sphere2, so3-quat")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--out", default="samples.json")

    p = sub.add_parser("decompose", help="run the prediction-correction pyramid")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--levels", type=int, required=True)
    predictor_flags(p)
    p.add_argument("--out", default="pyramid.json")

    p = sub.add_parser("reconstruct", help="invert a pyramid file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", default="samples.json")

    p = sub.add_parser("decay", help="detail decay experiment with slope fit")
    p.add_argument("--preset", required=True)
    p.add_argument("--manifold", required=True)
    predictor_flags(p)
    p.add_argument(
        "--levels", default="3:8",
        help="detail level range nmin:nmax (samples at nmax)",
    )
    p.add_argument("--out", default="report.csv")

    p = sub.add_parser("verify", help="run the full verification suite")
    p.add_argument("--config", help="key = value structured-text config file")
    p.add_argument("--out", default="report.json")
    return parser


def _cmd_sample(args) -> int:
    spec = get_preset(args.manifold, args.preset)
    write_samples(sample_signal(spec, args.level), args.out)
    print(f"wrote level-{args.level} samples of {args.preset} to {args.out}")
    return 0


def _cmd_decompose(args) -> int:
    c = read_samples(args.infile)
    provider = provider_from_config(args.predictor, args.lam)
    pyr = decompose_manifold(c, provider, args.rule, args.levels)
    write_pyramid(pyr, args.out)
    print(
        f"decomposed {len(c)} samples over {args.levels} levels "
        f"({args.predictor} predictor, {args.rule} rule) to {args.out}"
    )
    return 0


def _cmd_reconstruct(args) -> int:
    pyr = read_pyramid(args.infile)
    rec = reconstruct_manifold(pyr)
    write_samples(rec, args.out)
    print(f"reconstructed {len(rec)} samples to {args.out}")
    return 0


def _cmd_decay(args) -> int:
    from .experiments import _ANNIHILATION_TOL, decay_experiment

    try:
        nmin, nmax = (int(x) for x in args.levels.split(":"))
    except ValueError:
        raise SchemaError(f"--levels must be nmin:nmax, got {args.levels!r}")
    spec = get_preset(args.manifold, args.preset)
    provider = provider_from_config(args.predictor, args.lam)
    report = decay_experiment(spec, provider, args.rule, nmin, nmax)
    write_decay_csv(report, args.out)
    if report.exact_annihilation:
        tol = f"{_ANNIHILATION_TOL:g}"
        print(f"{args.preset}: exact annihilation (all details <= {tol})")
    else:
        print(
            f"{args.preset}: fitted slope {report.fitted_slope:.3f} over "
            f"levels {report.fit_range[0]}:{report.fit_range[1]}, "
            f"C estimate {report.constant_estimate:.3g}"
        )
    print(f"wrote decay table to {args.out}")
    return 0


def _cmd_verify(args) -> int:
    from .experiments import parse_config, verify_suite

    config = None
    if args.config:
        with open_text(args.config) as fh:
            config = parse_config(fh.read())
    report = verify_suite(config)
    write_report(report, args.out)
    for line in report.lines():
        print(line)
    print(f"wrote report to {args.out}")
    if not report.passed:
        raise VerificationFailure("one or more verification checks failed")
    return 0


_COMMANDS = {
    "sample": _cmd_sample,
    "decompose": _cmd_decompose,
    "reconstruct": _cmd_reconstruct,
    "decay": _cmd_decay,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except GeomwaveError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.exit_code
    except MemoryError as err:  # a size the input admits but memory cannot hold
        reason = f": {err}" if str(err) else ""
        print(f"error: {args.command}: out of memory{reason}", file=sys.stderr)
        return SchemaError.exit_code


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
