#!/usr/bin/env python3
"""Sample the limiting law and recover its coefficients from the counts.

Runs the whole loop model -> pmf -> samples -> factorial-cumulant
estimates at a ladder of sample sizes, printing the estimate, the
bootstrap standard error, and the deviation from truth in SE units.

Example:
    python scripts/estimate_recovery.py --c 2.0,0.5 --seed 42
"""

import argparse

from corrcount import (
    CorrelationModel,
    estimate_coefficients,
    limit_pmf,
    sample_counts,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--c", default="2.0,0.5", help="coefficients C_1,C_2,...")
    parser.add_argument("--sizes", default="10000,100000,1000000")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--bootstrap", type=int, default=200)
    args = parser.parse_args()

    coeffs = [float(x) for x in args.c.split(",")]
    pmf = limit_pmf(CorrelationModel(coeffs))
    print(f"model C = {tuple(coeffs)}, support 0..{pmf.s_max}")

    for size in (int(s) for s in args.sizes.split(",")):
        counts = sample_counts(pmf, size, seed=args.seed)
        report = estimate_coefficients(
            counts, l_max=len(coeffs), n_bootstrap=args.bootstrap, seed=args.seed
        )
        print(f"n = {size}:")
        for order, (got, se, want) in enumerate(
            zip(report.c_hat, report.std_err, coeffs), start=1
        ):
            pull = 0.0 if se == 0 else (got - want) / se
            print(
                f"  C_{order}: estimate {got:+.5f}  SE {se:.5f}  "
                f"truth {want:+.5f}  pull {pull:+.2f}"
            )


if __name__ == "__main__":
    main()
