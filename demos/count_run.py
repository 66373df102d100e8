"""Simulated counting run through the full analysis chain.

Generates count tables for all four measurement setups under the default
imperfection model, reconstructs the quasiprobability, and prints the
error budget next to the exact prediction.
"""

import argparse
import math

import numpy as np

from oqlab import (
    SETUPS,
    CountTable,
    DetectorModel,
    ExperimentRecord,
    analyze,
    context_table,
    make_pure_state,
    oq_distribution,
    simulate_counts,
)
from oqlab.photonsim import detection_probs


def model_expectation(rho, det, photons):
    """Negativity the apparatus converges to, from aligned-model probabilities."""
    tables = {}
    for setup in [(1, 1), (0, 1)]:
        probs, _ = detection_probs(rho, setup, det)
        counts = np.rint(probs * photons).astype(np.int64)
        tables[setup] = CountTable(setup=setup, counts=counts, total=int(counts.sum()))
    q, _ = analyze(ExperimentRecord(tables=tables), n_boot=0)
    return q.negativity


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--theta", type=float, default=45.0, help="Bloch angle in degrees")
    parser.add_argument("--photons", type=int, default=10_000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--ideal", action="store_true", help="disable all imperfections")
    args = parser.parse_args(argv)

    det = DetectorModel.ideal() if args.ideal else DetectorModel()
    rho = make_pure_state(math.radians(args.theta))
    seeds = np.random.SeedSequence(args.seed).spawn(len(SETUPS))
    tables = {
        setup: simulate_counts(rho, setup, args.photons, det=det, seed=seed)
        for setup, seed in zip(SETUPS, seeds)
    }

    for setup in SETUPS:
        c = tables[setup].counts
        print(f"setup (n1={setup[0]}, n2={setup[1]}): "
              f"D00={c[0, 0]:5d}  D01={c[0, 1]:5d}  D10={c[1, 0]:5d}  D11={c[1, 1]:5d}")

    rec = ExperimentRecord(tables=tables, theta_deg=args.theta, source="simulated")
    q, budget = analyze(rec)
    exact = oq_distribution(context_table(rho))
    expected = model_expectation(rho, det, args.photons)

    print()
    print("reconstructed W:")
    for row in q.w:
        print("  " + "  ".join(f"{v:+.5f}" for v in row))
    print(f"negativity = {q.negativity:.5f} "
          f"+- {budget.combined_error():.5f} "
          f"(stat {budget.statistical_error:.5f}, syst {budget.systematic_error:.5f})")
    print(f"apparatus expectation = {expected:.5f} "
          f"(gap {abs(q.negativity - expected):.5f}, run-to-run scatter)")
    print(f"ideal-state value = {exact.negativity:.5f} "
          f"(gap {abs(q.negativity - exact.negativity):.5f}, cost of the imperfections)")


if __name__ == "__main__":
    main()
