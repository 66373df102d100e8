"""Polarization qubit states and Jones-calculus waveplate optics.

Conventions: |H> = (1, 0)^T, |V> = (0, 1)^T; states are 2x2 complex density
matrices stored as plain numpy arrays. The Bloch z axis corresponds to the
H/V basis and the x axis to the D/A basis, so single-measurement statistics
read (1 +- z)/2 and (1 +- x)/2 respectively.

All angles in this module are radians. Degree conversion happens at the
command-line and file boundaries only.
"""

from __future__ import annotations

import math

import numpy as np

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY = np.eye(2, dtype=complex)

KET_H = np.array([1.0, 0.0], dtype=complex)
KET_V = np.array([0.0, 1.0], dtype=complex)

# Validation tolerances for density matrices. The eigenvalue bound is
# slightly negative to absorb round-off in mixtures.
HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-12
_DET_FLOOR = EIGENVALUE_FLOOR * (1.0 - EIGENVALUE_FLOOR)


def validate_state(rho) -> np.ndarray:
    """Check that rho is a physical density matrix and return it as complex.

    A fast stage tests all three conditions at once on the four entries
    as Python complex numbers (from one ``tolist``), which costs far less
    than numpy calls on a 2x2 array. Only a matrix that fails it reaches
    the ordered checks, which name its first defect.

    Raises
    ------
    ValueError
        If rho is not 2x2, has non-finite entries, is not Hermitian or
        unit trace, or has an eigenvalue below the round-off floor.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise ValueError(f"density matrix must be 2x2, got shape {rho.shape}")
    (a, b), (c, d) = rho.tolist()
    # The terms are those of |rho - rho^H| entry by entry, the trace and
    # the determinant. A non-finite entry makes one of them NaN or
    # infinite, and NaN fails every comparison, so such a matrix never
    # passes here. Python float arithmetic does not warn; only abs() of a
    # huge complex can raise, and that matrix is not physical either.
    # 2x2 shortcut: with unit trace the lower eigenvalue is
    # (1 - sqrt(1 - 4 det))/2, so it clears the floor exactly when the
    # determinant does.
    try:
        if (
            2.0 * abs(a.imag) <= HERMITICITY_TOL
            and 2.0 * abs(d.imag) <= HERMITICITY_TOL
            and abs(b - c.conjugate()) <= HERMITICITY_TOL
            and abs(a + d - 1.0) <= TRACE_TOL
            and (a * d - b * c).real >= _DET_FLOOR
        ):
            return rho
    except OverflowError:
        pass
    if not np.isfinite(rho).all():
        raise ValueError("density matrix entries must be finite")
    # finite entries can still be huge enough for these to overflow to inf
    with np.errstate(over="ignore"):
        herm = np.abs(rho - rho.conj().T).max()
        tr = rho[0, 0] + rho[1, 1]
        trace_off = abs(tr - 1.0)
    if herm > HERMITICITY_TOL:
        raise ValueError("density matrix is not Hermitian")
    if trace_off > TRACE_TOL:
        raise ValueError(f"density matrix trace must be 1, got {tr}")
    raise ValueError("density matrix must be positive semidefinite")


def _validate_states(rho: np.ndarray) -> np.ndarray:
    """validate_state over an (N, 2, 2) complex stack in one vectorised pass.

    The same three conditions as validate_state, row by row. On failure
    the first failing state goes through validate_state, which names its
    defect.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        herm = np.abs(rho - rho.conj().transpose(0, 2, 1)).max(axis=(1, 2))
        tr = rho[:, 0, 0] + rho[:, 1, 1]
        det = (rho[:, 0, 0] * rho[:, 1, 1] - rho[:, 0, 1] * rho[:, 1, 0]).real
        ok = (herm <= HERMITICITY_TOL) & (np.abs(tr - 1.0) <= TRACE_TOL) & (det >= _DET_FLOOR)
    if not ok.all():
        validate_state(rho[np.argmin(ok)])
    return rho


def density_from_amplitudes(amp) -> np.ndarray:
    """Rank-1 density matrix |amp><amp| / <amp|amp>."""
    amp = np.asarray(amp, dtype=complex)
    norm = np.vdot(amp, amp).real
    if norm <= 0.0 or not np.isfinite(norm):
        raise ValueError("amplitude vector must have positive finite norm")
    return np.outer(amp, amp.conj()) / norm


def make_pure_state(theta: float, phi: float = 0.0) -> np.ndarray:
    """Density matrix of cos(theta/2)|H> + exp(i phi) sin(theta/2)|V>.

    theta and phi are Bloch angles in radians; the Bloch vector of the
    result is (sin theta cos phi, sin theta sin phi, cos theta).
    """
    if not (math.isfinite(theta) and math.isfinite(phi)):
        raise ValueError("theta and phi must be finite")
    amp = np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)])
    return amp[:, None] * amp.conj()


def make_mixed_state(theta1: float, theta2: float, alpha: float) -> np.ndarray:
    """Weighted mixture of two pure states in the phi = 0 plane.

    Returns (1+alpha)/2 * |psi(theta1)><psi(theta1)|
          + (1-alpha)/2 * |psi(theta2)><psi(theta2)|.

    With theta2 = theta1 + pi the two branches are antipodal and alpha
    scales the Bloch vector linearly; alpha = 0 gives the completely
    depolarized state and |alpha| = 1 a pure state.
    """
    if not np.isfinite(alpha) or abs(alpha) > 1.0:
        raise ValueError(f"mixing parameter must satisfy |alpha| <= 1, got {alpha}")
    w1 = (1.0 + alpha) / 2.0
    w2 = (1.0 - alpha) / 2.0
    return w1 * make_pure_state(theta1, 0.0) + w2 * make_pure_state(theta2, 0.0)


def bloch_vector(rho) -> np.ndarray:
    """Bloch vector (x, y, z) = (Tr rho sigma_x, Tr rho sigma_y, Tr rho sigma_z)."""
    rho = validate_state(rho)
    return np.array(
        [
            np.trace(rho @ SIGMA_X).real,
            np.trace(rho @ SIGMA_Y).real,
            np.trace(rho @ SIGMA_Z).real,
        ]
    )


def state_from_bloch(x: float, y: float, z: float) -> np.ndarray:
    """Density matrix (I + x sigma_x + y sigma_y + z sigma_z) / 2."""
    norm2 = x * x + y * y + z * z
    if not np.isfinite(norm2) or norm2 > 1.0 + 1e-12:
        raise ValueError("Bloch vector must lie in the closed unit ball")
    return (IDENTITY + x * SIGMA_X + y * SIGMA_Y + z * SIGMA_Z) / 2.0


def _rotation(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]], dtype=complex)


def rotate_polarization(rho, angle: float) -> np.ndarray:
    """Rotate the linear polarization frame of rho by `angle` radians."""
    r = _rotation(angle)
    return r @ np.asarray(rho, dtype=complex) @ r.T


def hwp_matrix(angle: float) -> np.ndarray:
    """Jones matrix of a half-wave plate with fast axis at `angle` radians.

    Acting on |H> this gives cos(2 angle)|H> + sin(2 angle)|V>.
    """
    r = _rotation(angle)
    return r @ np.diag([1.0 + 0.0j, -1.0 + 0.0j]) @ r.T


def qwp_matrix(angle: float) -> np.ndarray:
    """Jones matrix of a quarter-wave plate with fast axis at `angle` radians.

    The slow axis picks up a phase of +pi/2; this sign is the one that
    makes the physical preparation chain below reproduce the target
    amplitudes exactly, prefactor included.
    """
    r = _rotation(angle)
    return r @ np.diag([1.0 + 0.0j, 1.0j]) @ r.T


def prep_angles(theta: float, phi: float) -> tuple[float, float]:
    """Waveplate setting angles (p, q) that prepare the (theta, phi) state.

    p is the half-wave plate angle and q the first quarter-wave plate
    angle; the final quarter-wave plate is fixed at pi/4.
    """
    p = (np.pi + phi - theta) / 4.0
    q = (np.pi / 2.0 - theta) / 2.0
    return p, q


def prepare_via_waveplates(theta: float, phi: float = 0.0) -> np.ndarray:
    """Prepare the (theta, phi) state by the physical waveplate chain.

    A horizontally polarized photon traverses QWP(q), HWP(p), QWP(pi/4)
    with p, q from prep_angles. The result equals make_pure_state(theta,
    phi) up to a global phase.
    """
    if not (np.isfinite(theta) and np.isfinite(phi)):
        raise ValueError("theta and phi must be finite")
    p, q = prep_angles(theta, phi)
    amp = qwp_matrix(np.pi / 4) @ hwp_matrix(p) @ qwp_matrix(q) @ KET_H
    return density_from_amplitudes(amp)


def fidelity(rho, sigma) -> float:
    """Uhlmann fidelity of two qubit density matrices.

    Uses the two-dimensional closed form F = Tr(rho sigma) + 2 sqrt(det
    rho det sigma), which avoids matrix square roots.
    """
    rho = np.asarray(rho, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    t = np.trace(rho @ sigma).real
    d = (np.linalg.det(rho) * np.linalg.det(sigma)).real
    return float(t + 2.0 * np.sqrt(max(d, 0.0)))
