"""Weak-field negativity sweep with and without dark-count correction.

Runs attenuated-pulse counting at several mean photon numbers across the
Bloch angle, with dark counts enabled, and compares the uncorrected and
corrected reconstructions against the exact curve.
"""

import argparse

import numpy as np

from oqlab import DetectorModel, weakfield_scan


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="weak_field_sweep.png")
    parser.add_argument("--pulses", type=int, default=200_000)
    parser.add_argument("--means", default="0.001,0.006,0.1")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    det = DetectorModel.ideal(dark_rate_hz=1.0e3)
    means = [float(m) for m in args.means.split(",")]
    thetas = np.arange(0.0, 91.0, 5.0)
    # raw and dark-corrected negativity of every (theta, mean) point
    _, exact, raw, corr = weakfield_scan(thetas, means, args.pulses, det, args.seed)
    exact = exact[:, 0]
    for j, mean in enumerate(means):
        worst = np.max(np.abs(corr[:, j] - exact))
        print(f"mean {mean:g}: peak raw {raw[:, j].max():.4f}, "
              f"peak corrected {corr[:, j].max():.4f}, worst |corr - exact| {worst:.4f}")

    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib not installed, skipping the figure")
        return

    fig, axes = plt.subplots(1, len(means), figsize=(4 * len(means), 3.5), sharey=True)
    axes = np.atleast_1d(axes)
    for j, (ax, mean) in enumerate(zip(axes, means)):
        ax.plot(thetas, exact, "k-", lw=1, label="exact")
        ax.plot(thetas, raw[:, j], "o", ms=3, label="uncorrected")
        ax.plot(thetas, corr[:, j], "s", ms=3, label="corrected")
        ax.set_title(f"mean photons = {mean:g}")
        ax.set_xlabel("theta (deg)")
    axes[0].set_ylabel("negativity")
    axes[0].legend(frameon=False, fontsize=8)
    fig.tight_layout()
    fig.savefig(args.out, dpi=150)
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
