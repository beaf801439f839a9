#!/usr/bin/env python3
"""Run the wavelet-coefficient decay experiment on every shipped preset and
print the per-level detail norms, fitted slopes, and empirical constants."""

import argparse

from geomwave.experiments import decay_experiment
from geomwave.predictors import provider_from_config
from geomwave.signals import get_preset


CASES = [
    ("sphere2", "wobble"),
    ("sphere2", "greatcircle"),
    ("so3-quat", "quatcurve"),
    ("euclidean:3", "trigblend"),
    ("euclidean:1", "poly3"),
    ("euclidean:1", "exp"),
]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--predictor", choices=("cubic", "exp"), default="cubic")
    ap.add_argument("--lambda", dest="lam", type=float, default=1.0)
    ap.add_argument("--rule", choices=("midpoint", "leftpoint"), default="midpoint")
    ap.add_argument("--nmin", type=int, default=3)
    ap.add_argument("--nmax", type=int, default=8)
    args = ap.parse_args()

    provider = provider_from_config(args.predictor, args.lam)
    for tag, preset in CASES:
        spec = get_preset(tag, preset)
        rep = decay_experiment(spec, provider, args.rule, args.nmin, args.nmax)
        print(f"== {preset} on {tag} ({args.predictor}, {args.rule}) ==")
        for n, s in zip(rep.levels, rep.sup_norms):
            print(f"  level {n}: ||d|| = {s:.6e}")
        if rep.exact_annihilation:
            print("  exact annihilation (all details <= 1e-12)")
        else:
            print(
                f"  fitted slope {rep.fitted_slope:+.3f} over "
                f"{rep.fit_range[0]}:{rep.fit_range[1]}; "
                f"C estimate {rep.constant_estimate:.4g}"
            )
        print()


if __name__ == "__main__":
    main()
