"""Selective single and sequential projective polarization measurements.

A measurement setup is a tuple (n1, n2) of bits: n1 = 1 means the H/V
measurement runs at the first time, n2 = 1 means the D/A measurement runs
at the second time. Outcomes are bits a1 (0 = H, 1 = V) and a2 (0 = D,
1 = A); the detector that fires in the full sequential arrangement is
labeled D_{a1,a2}, and with the first polarizing splitter removed all
light reaches the a1 = 0 arm. _effective_operators builds the operators
of both the exact kernel and photonsim's detector model.
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


_FIRST_OUTCOME = np.array([1.0, 0.0])


def _effective_operators(setup, prep=0.0, arms=(0.0, 0.0), leaks=(0.0, 0.0),
                         efficiency=(1.0, 1.0, 1.0, 1.0)):
    """The four detectors' effective operators, flattened as (..., 4, 4).

    The one builder of measurement operators: the exact kernel takes its
    ideal defaults, photonsim's detector model a run's turns, leaks
    (reflect, transmit) and efficiencies (D00, D01, D10, D11). Detector
    k = (a1, a2) counts a photon of state rho with probability
    Tr[E_k rho]; each E_k is real and symmetric, e0 I + ez sigma_z +
    ex sigma_x, built in closed form per arm a and outcome o:

    * analysis stage (n2 = 1): the splitter of arm a measures in the D/A
      basis turned by arms[a] and routes basis ket b_i to outcome o with
      probability flip[i, o], so A_{a,o} = sum_i flip[i, o] |b_i><b_i|;
      with n2 = 0 every photon of an arm lands on o = 0, A_{a,o} = I or 0;
    * first stage (n1 = 1): the photon collapses to H or V and reaches
      arm a with probability flip[pol, a], so E_{a,o} = sum_pol
      flip[pol, a] <pol|A_{a,o}|pol> |pol><pol|; with n1 = 0 every photon
      reaches arm 0 uncollapsed, so E_{0,o} = A_{0,o} and E_{1,o} = 0;
    * the efficiencies scale each E_k;
    * the preparation plate turns the state, rho -> R rho R^T with R the
      rotation by prep, so E_k becomes R^T E_k R, which turns (ez, ex)
      by 2 * prep.

    setup is (n1, n2) or an (N, 2) stack, each row's branches picked by
    np.where; prep has shape (...) and arms (..., 2). Row i of the result
    follows the flattened rho (rho00, rho01, rho10, rho11), column k the
    detectors in D00, D01, D10, D11 order.
    """
    n1, n2 = (np.asarray(setup).T == 1)[..., None, None]
    fr, ft = leaks
    # with flip = [[1 - fr, fr], [ft, 1 - ft]], half the sum and half the
    # difference of its rows: over o they give A's identity and Pauli
    # parts, over a the first stage's
    g = 1.0 - fr - ft
    mean, half_diff = np.array([[1.0 - fr + ft, 1.0 + fr - ft], [g, -g]]) / 2.0
    # |D><D| - |A><A| = cos 2b sigma_z + sin 2b sigma_x at b = pi/4 +
    # arms[a], so cos 2b = -sin 2 arms[a] and sin 2b = cos 2 arms[a]
    turn = 2.0 * np.asarray(arms, dtype=float)[..., :, None]
    a0, az, ax = (np.where(n2, on, off) for on, off in (
        (mean, _FIRST_OUTCOME), (-half_diff * np.sin(turn), 0.0), (half_diff * np.cos(turn), 0.0)))
    # n1 = 1: diagonal, with entries flip[H, a] <H|A|H> and flip[V, a] <V|A|V>
    m, d, arm0 = mean[:, None], half_diff[:, None], _FIRST_OUTCOME[:, None]
    e0, ez, ex = (np.where(n1, on, off) for on, off in (
        (m * a0 + d * az, arm0 * a0), (d * a0 + m * az, arm0 * az), (0.0, arm0 * ax)))
    eff = np.reshape(efficiency, (2, 2))
    twice = 2.0 * np.asarray(prep, dtype=float)[..., None, None]
    c, s = np.cos(twice), np.sin(twice)
    e0, ez, ex = e0 * eff, (ez * c + ex * s) * eff, (ex * c - ez * s) * eff
    # rows e0 + ez, ex, ex, e0 - ez, each flattened over (a, o); ex has the
    # full shape
    ops = np.concatenate((e0 + ez, ex, ex, e0 - ez), axis=-2)
    return ops.reshape(ops.shape[:-2] + (4, 4))


# the ideal operators, entries exactly 0, +-1/2 or 1: p_t1 from D00 and D10
# of setup (1, 0), p_t2 from D00 and D01 of (0, 1), the joint from (1, 1)
_TRACE_MATRIX = np.hstack(_effective_operators([(1, 0), (0, 1), (1, 1)])).take(
    [0, 2, 4, 5, 8, 9, 10, 11], axis=1)
_BASIS_SLICES = {HV: slice(0, 2), DA: slice(2, 4)}


def _probabilities(rho) -> np.ndarray:
    """All eight probabilities of validated density matrices.

    rho is a (..., 2, 2) stack; a single (2, 2) state gives shape (8,),
    a stack of N gives (N, 8), in the layout _split reads. The operators
    are real and symmetric, so Tr[E rho] takes rho.real alone. Round-off
    below zero is clipped, in place on the fresh product.
    """
    p = rho.real.reshape(rho.shape[:-2] + (4,)) @ _TRACE_MATRIX
    return np.maximum(p, 0.0, out=p)


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


def _trusted(cls, extra=None):
    """A constructor of cls that skips __post_init__, for values already in its form.

    Call it once per class, at import: it generates straight-line code
    from cls.__dataclass_fields__, as dataclasses generates __init__.
    The constructor takes every field positionally, then the class's one
    non-field attribute extra as an optional last argument, set only when
    it is not None. It sets each value with object.__setattr__ in field
    declaration order, as __init__ does, and extra last, so that
    instances keep CPython's key-sharing dicts (an instance filled in
    another order, or by __dict__.update(), can get a dict of its own).
    """
    names = list(cls.__dataclass_fields__)
    lines = [f"def new({', '.join(names)}{f', {extra}=None' if extra else ''}):",
             "    obj = new_object(cls)"]
    lines += [f"    set_attr(obj, {name!r}, {name})" for name in names]
    if extra:
        lines += [f"    if {extra} is not None:", f"        set_attr(obj, {extra!r}, {extra})"]
    lines.append("    return obj")
    scope = {"cls": cls, "new_object": object.__new__, "set_attr": object.__setattr__}
    exec("\n".join(lines), scope)
    return scope["new"]


@dataclass(frozen=True)
class ProbabilitySet:
    """The probability bundle feeding the quasiprobability formula.

    p_t1 : outcome probabilities of the first measurement alone
    p_t2 : outcome probabilities of the second measurement alone
    p_joint : (2, 2) joint probabilities of the sequential run

    context_table's results skip __post_init__ and keep their kernel
    vector, of which their blocks are views, as _flat.
    """

    p_t1: np.ndarray
    p_t2: np.ndarray
    p_joint: np.ndarray
    _flat = None  # not a field

    def __post_init__(self):
        object.__setattr__(self, "p_t1", np.asarray(self.p_t1, dtype=float))
        object.__setattr__(self, "p_t2", np.asarray(self.p_t2, dtype=float))
        object.__setattr__(self, "p_joint", np.asarray(self.p_joint, dtype=float))


_new_probability_set = _trusted(ProbabilitySet, "_flat")


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
    # the kept kernel vector, unless a copy or pickle gave the blocks their own
    flat = getattr(ps, "_flat", None)
    if flat is None or not (ps.p_t1.base is ps.p_t2.base is ps.p_joint.base is flat):
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
    then views of one kernel vector, which the result keeps.
    """
    flat = _probabilities(qcore.validate_state(rho))
    return _new_probability_set(flat[0:2], flat[2:4], flat[4:].reshape(2, 2), flat)
