"""Shared helpers for the test suite."""

import math

import numpy as np

from oqlab.oq import _EQ1_MATRIX


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


# the cells of each table the estimate reads (row-major indices), and the
# part of the table they form
READ_CELLS = {
    (1, 1): ((0, 1, 2, 3), "the table"),
    (0, 1): ((0, 1), "the a1 = 0 row"),
    (1, 0): ((0, 2), "the a2 = 0 column"),
}


def read_reference(rec, mode="lab"):
    """The estimate of an ExperimentRecord as loops over Python numbers.

    Every table the mode reads, (1,1) and (0,1) plus (1,0) in strict
    mode, becomes (n, total, cells, norm, q): its four counts, their sum,
    the cells read, their calibrated sum c.n and the normalised calibrated
    cells c*n / (c.n). Returns those reads and the eight probabilities
    (p_t1, p_t2, p_joint row-major), p_t1 the a2-marginal of (1,1) in lab
    mode. Raises the estimate's ValueError at the first table that is
    missing or cannot be read.
    """
    reads = []
    setups = [(1, 1), (0, 1)] + ([(1, 0)] if mode == "strict" else [])
    for setup in setups:
        if setup not in rec.tables:
            raise ValueError(f"record is missing the required setup {setup}")
        n = rec.tables[setup].counts.ravel().tolist()
        total = sum(n)
        if total <= 0:
            raise ValueError(f"setup {setup}: table holds no counts")
        cells, part = READ_CELLS[setup]
        norm = 0.0
        for i in cells:
            norm += rec.calibration[i] * n[i]
        if norm <= 0:
            raise ValueError(f"setup {setup}: no counts in {part}")
        reads.append((n, total, cells, norm, [rec.calibration[i] * n[i] / norm for i in cells]))
    joint, row, *first = (q for *_, q in reads)
    p_t1 = first[0] if first else [joint[0] + joint[1], joint[2] + joint[3]]
    return reads, p_t1 + row + joint


def standard_error_reference(reads, cell, calibration):
    """The delta-method error of read_reference's tables along cell
    (row-major) of w, as loops over Python numbers: f_i = n_i / total is
    an exact integer quotient, which float division matches for totals
    below 2**53."""
    grad = [-d for d in _EQ1_MATRIX[:, cell].tolist()]  # d negativity / d p
    g_joint = grad[4:] if len(reads) == 3 else [grad[4 + i] + grad[i // 2] for i in range(4)]
    var = 0.0
    for (n, total, cells, norm, q), g in zip(reads, (g_joint, grad[2:4], grad[0:2])):
        gq = 0.0
        for gi, qi in zip(g, q):
            gq += gi * qi
        fh = fh2 = 0.0  # sums of f_i h_i and f_i h_i^2
        for i, gi in zip(cells, g):
            f = n[i] / total
            h = calibration[i] * (gi - gq) * total / norm
            fh += f * h
            fh2 += f * h * h
        var += (fh2 - fh * fh) / total
    return math.sqrt(max(var, 0.0))
