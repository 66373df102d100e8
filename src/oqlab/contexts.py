"""Selective single and sequential projective polarization measurements.

A measurement setup is a tuple (n1, n2) of bits: n1 = 1 means the H/V
measurement runs at the first time, n2 = 1 means the D/A measurement runs
at the second time. Outcomes are bits a1 (0 = H, 1 = V) and a2 (0 = D,
1 = A); the detector that fires in the full sequential arrangement is
labeled D_{a1,a2}, and with the first polarizing splitter removed all
light reaches the a1 = 0 arm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qcore

HV = "HV"
DA = "DA"

SETUPS = ((0, 0), (0, 1), (1, 0), (1, 1))


def validate_setup(setup) -> tuple[int, int]:
    n1, n2 = setup
    if (n1, n2) not in SETUPS:
        raise ValueError(f"setup must be one of {SETUPS}, got {setup!r}")
    return (int(n1), int(n2))


def hv_projectors():
    """Projectors (|H><H|, |V><V|)."""
    return (
        np.outer(qcore.KET_H, qcore.KET_H.conj()),
        np.outer(qcore.KET_V, qcore.KET_V.conj()),
    )


def da_projectors():
    """Projectors (|D><D|, |A><A|) with |D/A> = (|H> +- |V>)/sqrt(2)."""
    d = (qcore.KET_H + qcore.KET_V) / np.sqrt(2)
    a = (qcore.KET_H - qcore.KET_V) / np.sqrt(2)
    return (np.outer(d, d.conj()), np.outer(a, a.conj()))


def _measurement_operators() -> np.ndarray:
    """The eight operators whose Born-rule expectations are the probabilities.

    In order: Pi_HV(0), Pi_HV(1), Pi_DA(0), Pi_DA(1), then the sequential
    Pi_HV(a1) Pi_DA(a2) Pi_HV(a1) for (a1, a2) = (0, 0), (0, 1), (1, 0),
    (1, 1); by cyclicity of the trace the last four give
    Tr[Pi_DA(a2) Pi_HV(a1) rho Pi_HV(a1)].
    """
    hv, da = hv_projectors(), da_projectors()
    sequential = [hv[a1] @ da[a2] @ hv[a1] for a1 in (0, 1) for a2 in (0, 1)]
    return np.stack([*hv, *da, *sequential])


# Tr[M rho] = sum_ij M_ji rho_ij, so with each transposed operator flattened
# into a column, one matmul of the flattened rho gives all eight traces.
_TRACE_MATRIX = _measurement_operators().transpose(0, 2, 1).reshape(8, 4).T.copy()
_BASIS_SLICES = {HV: slice(0, 2), DA: slice(2, 4)}


def _probabilities(rho) -> np.ndarray:
    """All eight probabilities of validated density matrices.

    rho is a (..., 2, 2) stack; a single (2, 2) state gives shape (8,),
    a stack of N gives (N, 8). Columns follow _measurement_operators,
    which is the layout _split reads. Round-off below zero is clipped.
    """
    p = (rho.reshape(rho.shape[:-2] + (4,)) @ _TRACE_MATRIX).real
    return np.maximum(p, 0.0)


def _split(p):
    """View (..., 8) probabilities as the blocks (p_t1, p_t2, p_joint)."""
    return p[..., 0:2], p[..., 2:4], p[..., 4:].reshape(p.shape[:-1] + (2, 2))


def _vector(ps) -> np.ndarray:
    """The blocks of a ProbabilitySet as one (8,) vector, inverse of _split."""
    return np.concatenate((ps.p_t1, ps.p_t2, ps.p_joint.ravel()))


_BLOCK_STARTS = (0, 2, 4)  # where p_t1, p_t2 and p_joint start in that vector


def single_probs(rho, basis: str) -> np.ndarray:
    """Born-rule outcome probabilities of a single measurement.

    Parameters
    ----------
    rho : 2x2 density matrix
    basis : "HV" or "DA"
    """
    rho = qcore.validate_state(rho)
    key = str(basis).upper()
    if key not in _BASIS_SLICES:
        raise ValueError(f"basis must be 'HV' or 'DA', got {basis!r}")
    return _probabilities(rho)[_BASIS_SLICES[key]]


def sequential_probs(rho) -> np.ndarray:
    """Joint probabilities of H/V followed by D/A on the updated state.

    P(a1, a2) = Tr[Pi_DA(a2) Pi_HV(a1) rho Pi_HV(a1)], i.e. a projective
    update after the first outcome, then the Born rule for the second.
    Returned as a (2, 2) array indexed [a1, a2].
    """
    return _split(_probabilities(qcore.validate_state(rho)))[2]


@dataclass(frozen=True)
class ProbabilitySet:
    """The probability bundle feeding the quasiprobability formula.

    p_t1 : outcome probabilities of the first measurement alone
    p_t2 : outcome probabilities of the second measurement alone
    p_joint : (2, 2) joint probabilities of the sequential run
    """

    p_t1: np.ndarray
    p_t2: np.ndarray
    p_joint: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p_t1", np.asarray(self.p_t1, dtype=float))
        object.__setattr__(self, "p_t2", np.asarray(self.p_t2, dtype=float))
        object.__setattr__(self, "p_joint", np.asarray(self.p_joint, dtype=float))


def validate_probability_set(ps: ProbabilitySet, atol: float = 1e-9) -> ProbabilitySet:
    """Check shapes, nonnegativity, and normalization of each block.

    A fast stage tests all blocks at once on the eight entries as Python
    floats (from one ``tolist``), which costs far less than numpy calls
    on arrays this small. Only a set that fails it reaches the ordered
    per-block checks, which name its first defect.
    """
    _checked_vector(ps, atol)
    return ps


def _checked_vector(ps: ProbabilitySet, atol: float) -> np.ndarray:
    """_vector(ps), once the checks of validate_probability_set pass."""
    if ps.p_t1.shape != (2,) or ps.p_t2.shape != (2,) or ps.p_joint.shape != (2, 2):
        raise ValueError("probability set blocks have wrong shapes")
    flat = _vector(ps)
    p0, p1, p2, p3, j0, j1, j2, j3 = flat.tolist()
    # A NaN or infinite entry makes its block sum NaN or infinite, and NaN
    # fails every comparison, so a non-finite set never passes here. The
    # sums add in np.add.reduceat's order, as _validate_vectors does, so
    # both accept the same sets.
    if (
        min(p0, p1, p2, p3, j0, j1, j2, j3) >= -atol
        and abs(p0 + p1 - 1.0) <= atol
        and abs(p2 + p3 - 1.0) <= atol
        and abs(j0 + ((j1 + j2) + j3) - 1.0) <= atol
    ):
        return flat
    for name, block in (("p_t1", ps.p_t1), ("p_t2", ps.p_t2), ("p_joint", ps.p_joint)):
        if not np.isfinite(block).all():
            raise ValueError(f"{name} has non-finite entries")
        if block.min() < -atol:
            raise ValueError(f"{name} has negative entries")
        with np.errstate(over="ignore"):  # finite entries can sum to inf
            total = block.sum()
        if abs(total - 1.0) > atol:
            raise ValueError(f"{name} does not sum to 1 (sum = {total!r})")
    return flat


def _validate_vectors(p: np.ndarray, atol: float = 1e-9) -> np.ndarray:
    """validate_probability_set over the rows of an (N, 8) float array at once.

    Rows follow the _split layout. On failure the first failing row goes
    through validate_probability_set, which names its defect.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        sums = np.add.reduceat(p, _BLOCK_STARTS, axis=1)
        ok = (p.min(axis=1) >= -atol) & (np.abs(sums - 1.0).max(axis=1) <= atol)
    if not ok.all():
        validate_probability_set(ProbabilitySet(*_split(p[np.argmin(ok)])), atol=atol)
    return p


def context_table(rho) -> ProbabilitySet:
    """Exact single and sequential probabilities for one input state.

    The state is validated once here; the three probability blocks are
    then slices of one kernel call.
    """
    p_t1, p_t2, p_joint = _split(_probabilities(qcore.validate_state(rho)))
    return ProbabilitySet(p_t1=p_t1, p_t2=p_t2, p_joint=p_joint)
