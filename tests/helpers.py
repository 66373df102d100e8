"""Shared helpers for the test suite."""

import numpy as np


def random_density_matrix(rng):
    """Random full-rank density matrix via the Ginibre construction."""
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_pure_state_angles(rng):
    """Bloch angles distributed uniformly over the sphere."""
    theta = np.arccos(rng.uniform(-1.0, 1.0))
    phi = rng.uniform(0.0, 2 * np.pi)
    return theta, phi


# Entries that break naive float checks: NaN, infinities, negative zero,
# and magnitudes whose squares or sums overflow.
SPECIAL_FLOATS = [np.nan, np.inf, -np.inf, -0.0, 1e154, -1e154, 1e308, -1e308]


def outcome(check, *args):
    """None if check(*args) passes, else the message of its ValueError."""
    try:
        check(*args)
    except ValueError as err:
        return str(err)
    return None
