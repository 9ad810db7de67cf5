#!/usr/bin/env python3
"""Tabulate how fast the finite-N count law approaches its limit.

Prints max_s |p_N(s) - p_inf(s)| for a doubling ladder of N together with
the error ratio between consecutive rows; a ratio near 2 is the expected
first-order decay in 1/N.

Example:
    python scripts/convergence_table.py --c 1.0,0.3 --n0 125 --doublings 4
"""

import argparse

import numpy as np

from corrcount import CorrelationModel, finite_count_pmf, limit_pmf


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--c", default="1.0,0.3", help="coefficients C_1,C_2,...")
    parser.add_argument("--n0", type=int, default=125, help="smallest N")
    parser.add_argument("--doublings", type=int, default=4)
    args = parser.parse_args()

    coeffs = [float(x) for x in args.c.split(",")]
    p_inf = np.array(limit_pmf(CorrelationModel(coeffs)).values)

    print(f"model C = {tuple(coeffs)}")
    print(f"{'N':>8}  {'max|p_N - p_inf|':>18}  {'ratio to previous':>18}")
    previous = None
    for i in range(args.doublings):
        n = args.n0 * 2 ** i
        p_n = np.array(
            finite_count_pmf(CorrelationModel(coeffs, n=n)).values
        )
        length = max(p_n.size, p_inf.size)
        a = np.zeros(length)
        a[: p_n.size] = p_n
        b = np.zeros(length)
        b[: p_inf.size] = p_inf
        err = float(np.max(np.abs(a - b)))
        ratio = "" if previous is None else f"{previous / err:18.4f}"
        print(f"{n:>8}  {err:>18.6e}  {ratio:>18}")
        previous = err


if __name__ == "__main__":
    main()
