"""Operational quasiprobability of two sequential measurements.

The quasiprobability combines the statistics of three measurement setups,

    w(a1, a2) = P_joint(a1, a2)
              + [P_t1(a1) - sum_b P_joint(a1, b)] / 2
              + [P_t2(a2) - sum_b P_joint(b, a2)] / 2,

so that its marginals always reproduce the single-measurement
distributions. The correction terms measure how much the presence of one
measurement disturbs the statistics of the other; when both vanish (the
no-signaling-in-time and arrow-of-time conditions) w reduces to the joint
distribution and is nonnegative. Negative cells are therefore a witness
of measurement-selection context dependence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .contexts import ProbabilitySet, _checked_vector, _split, _validate_vectors

# Largest attainable negativity for projective qubit measurements in
# mutually unbiased bases: (sqrt(2) - 1) / 4.
MAX_NEGATIVITY = (np.sqrt(2.0) - 1.0) / 4.0


@dataclass(frozen=True)
class Quasiprobability:
    """Quasiprobability table with its negativity and disturbance diagnostics.

    w : (2, 2) array, quasiprobability of outcome pair (a1, a2)
    negativity : half the summed absolute value of the negative part of w
    nsit_dev : per-outcome deviation |p_t2(a2) - joint marginal|
    aot_dev : per-outcome deviation |p_t1(a1) - joint marginal|
    """

    w: np.ndarray
    negativity: float
    nsit_dev: np.ndarray
    aot_dev: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "w", np.asarray(self.w, dtype=float))
        object.__setattr__(self, "nsit_dev", np.asarray(self.nsit_dev, dtype=float))
        object.__setattr__(self, "aot_dev", np.asarray(self.aot_dev, dtype=float))


def negativity(w) -> float:
    """Half the summed absolute value of the negative components of w.

    Raises ValueError when w has a non-finite entry or does not sum to 1.
    """
    return _negativity(np.asarray(w, dtype=float).ravel().tolist())


def _negativity(cells) -> float:
    """negativity of w given as a list of Python floats in row-major order.

    Both sums run left to right from 0, as numpy sums a table this small,
    so the result is bit-identical to the numpy expression
    0.5 * (abs(w) - w).sum().
    """
    total = 0.0
    for c in cells:
        total += c
    if not abs(total - 1.0) <= 1e-9:
        # a sum that is not finite comes from a non-finite entry, or from
        # finite ones that overflow
        if not all(map(math.isfinite, cells)):
            raise ValueError("quasiprobability entries must be finite")
        raise ValueError(f"quasiprobability must sum to 1, got {np.float64(total)!r}")
    neg = 0.0
    for c in cells:
        neg += abs(c) - c
    return 0.5 * neg


def _eq1_matrix() -> np.ndarray:
    """The formula above as one exact (8, 8) matrix on the probability vector.

    w and both deviations are linear in the eight probabilities, so the
    formula evaluated on the eight unit vectors gives the matrix (entries
    0, +-1/2, +-1). Columns: w row-major, then p_t1 - marginal (aot),
    then p_t2 - marginal (nsit).
    """
    p_t1, p_t2, p_joint = _split(np.eye(8))
    aot = p_t1 - p_joint.sum(axis=2)
    nsit = p_t2 - p_joint.sum(axis=1)
    w = p_joint + aot[:, :, None] / 2.0 + nsit[:, None, :] / 2.0
    return np.concatenate((w.reshape(8, 4), aot, nsit), axis=1)


_EQ1_MATRIX = _eq1_matrix()


def oq_distribution(ps: ProbabilitySet, atol: float = 1e-9) -> Quasiprobability:
    """Quasiprobability of a probability bundle, with diagnostics.

    The bundle goes through the checks of validate_probability_set, whose
    Python-scalar fast stage passes a valid bundle without numpy calls,
    and becomes one probability vector; one matmul on it gives w and both
    deviations. The sum check and the negativity then run on the four
    Python floats of w, bit-identical to the numpy expressions and
    cheaper at this size.

    Raises ValueError when the bundle violates nonnegativity or
    normalization beyond `atol`.
    """
    out = _checked_vector(ps, atol) @ _EQ1_MATRIX
    # fresh arrays rather than views, so a kept result holds no spare base
    w = out[:4].reshape(2, 2).copy()
    return Quasiprobability(
        w=w,
        negativity=_negativity(out[:4].tolist()),
        nsit_dev=np.abs(out[6:]),
        aot_dev=np.abs(out[4:6]),
    )


def _quasi_rows(p, atol: float = 1e-9):
    """oq_distribution of N probability vectors at once.

    p is an (N, 8) array in the _split layout. Every row is validated as
    oq_distribution validates its bundle. Returns (w, negativity,
    nsit_dev, aot_dev) with shapes (N, 2, 2), (N,), (N, 2) and (N, 2).
    """
    out = _validate_vectors(p, atol) @ _EQ1_MATRIX
    w = out[:, :4]
    neg = 0.5 * (np.abs(w) - w).sum(axis=1)
    return w.reshape(-1, 2, 2), neg, np.abs(out[:, 6:]), np.abs(out[:, 4:6])


def _check_disk(x: float, z: float):
    if not (np.isfinite(x) and np.isfinite(z)):
        raise ValueError("disk coordinates must be finite")
    if x * x + z * z > 1.0 + 1e-12:
        raise ValueError(f"({x}, {z}) lies outside the unit disk")


def oq_closed_form(x: float, z: float) -> np.ndarray:
    """Quasiprobability of projective H/V then D/A measurements, closed form.

    For a state with Bloch components x (D/A axis) and z (H/V axis) the
    full pipeline collapses to

        w(a1, a2) = [1 + (-1)^a1 z + (-1)^a2 x] / 4.

    Serves as the independent oracle for the measurement pipeline.
    """
    _check_disk(x, z)
    signs = np.array([1.0, -1.0])
    return (1.0 + signs[:, None] * z + signs[None, :] * x) / 4.0


def negativity_region(x: float, z: float) -> float:
    """Exact negativity of oq_closed_form: max(0, (|x| + |z| - 1) / 4).

    At most one cell of the closed form can be negative, so the negativity
    is zero exactly on the diamond |x| + |z| <= 1 and grows linearly
    outside it.
    """
    _check_disk(x, z)
    return max(0.0, (abs(x) + abs(z) - 1.0) / 4.0)
