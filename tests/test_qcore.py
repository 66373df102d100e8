import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from oqlab import qcore

from helpers import SPECIAL_FLOATS, outcome, random_density_matrix

angles = st.floats(min_value=-20.0, max_value=20.0, allow_nan=False)


class TestPureStates:
    def test_poles(self):
        assert_allclose(qcore.make_pure_state(0.0, 0.0), np.diag([1.0, 0.0]), atol=1e-15)
        assert_allclose(
            qcore.make_pure_state(np.pi, 0.0), np.diag([0.0, 1.0]), atol=1e-15
        )

    def test_equator_is_diagonal_state(self):
        rho = qcore.make_pure_state(np.pi / 2, 0.0)
        assert_allclose(rho, np.full((2, 2), 0.5), atol=1e-15)
        assert_allclose(qcore.bloch_vector(rho), [1.0, 0.0, 0.0], atol=1e-15)

    def test_bloch48_components(self):
        # Independent oracle: direct Pauli traces of the amplitudes.
        rho = qcore.make_pure_state(np.pi / 4, 0.0)
        x = np.trace(rho @ qcore.SIGMA_X).real
        z = np.trace(rho @ qcore.SIGMA_Z).real
        assert_allclose([x, z], [np.sin(np.pi / 4), np.cos(np.pi / 4)], atol=1e-14)
        assert_allclose(x, 0.70711, atol=5e-6)

    def test_bloch_map_formula(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            th = rng.uniform(0, np.pi)
            ph = rng.uniform(0, 2 * np.pi)
            vec = qcore.bloch_vector(qcore.make_pure_state(th, ph))
            expected = [np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)]
            assert_allclose(vec, expected, atol=1e-13)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            qcore.make_pure_state(np.nan, 0.0)
        with pytest.raises(ValueError):
            qcore.make_pure_state(0.0, np.inf)

    @settings(max_examples=150, deadline=None)
    @given(theta=angles, phi=angles)
    def test_constructor_invariants(self, theta, phi):
        rho = qcore.make_pure_state(theta, phi)
        qcore.validate_state(rho)
        # rank 1: eigenvalues are exactly {0, 1} up to round-off
        ev = np.sort(np.linalg.eigvalsh(rho))
        assert_allclose(ev, [0.0, 1.0], atol=1e-12)


class TestMixedStates:
    def test_antipodal_equal_mixture_is_depolarized(self):
        for th in (0.0, 0.3, np.pi / 4, 2.0):
            rho = qcore.make_mixed_state(th, th + np.pi, 0.0)
            assert_allclose(rho, qcore.IDENTITY / 2, atol=1e-15)

    def test_alpha_one_is_pure(self):
        rho = qcore.make_mixed_state(0.7, 2.9, 1.0)
        assert_allclose(rho, qcore.make_pure_state(0.7, 0.0), atol=1e-15)

    def test_alpha_scales_bloch_vector(self):
        # Oracle: linearity of the Bloch map over the mixture weights.
        rho = qcore.make_mixed_state(np.pi / 4, np.pi / 4 + np.pi, 0.8)
        vec = qcore.bloch_vector(rho)
        assert_allclose(vec, [0.8 * np.sin(np.pi / 4), 0.0, 0.8 * np.cos(np.pi / 4)], atol=1e-14)
        assert_allclose(vec[[0, 2]], [0.56569, 0.56569], atol=5e-6)
        # eigen-decomposition oracle: eigenvalues are the mixture weights
        assert_allclose(np.sort(np.linalg.eigvalsh(rho)), [0.1, 0.9], atol=1e-12)

    def test_alpha_out_of_range(self):
        with pytest.raises(ValueError):
            qcore.make_mixed_state(0.0, np.pi, 1.2)

    @settings(max_examples=100, deadline=None)
    @given(
        theta1=angles,
        theta2=angles,
        alpha=st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
    )
    def test_mixture_invariants(self, theta1, theta2, alpha):
        qcore.validate_state(qcore.make_mixed_state(theta1, theta2, alpha))


class TestBlochRoundTrip:
    def test_trivial_points(self):
        assert_allclose(qcore.bloch_vector(np.diag([1.0, 0.0])), [0, 0, 1], atol=1e-15)
        assert_allclose(qcore.bloch_vector(qcore.IDENTITY / 2), [0, 0, 0], atol=1e-15)

    def test_phi_90_state(self):
        vec = qcore.bloch_vector(qcore.make_pure_state(np.pi / 4, np.pi / 2))
        assert_allclose(vec, [0.0, np.sin(np.pi / 4), np.cos(np.pi / 4)], atol=1e-14)

    def test_round_trip_on_random_states(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            rho = random_density_matrix(rng)
            vec = qcore.bloch_vector(rho)
            assert np.linalg.norm(vec) <= 1 + 1e-12
            assert_allclose(qcore.state_from_bloch(*vec), rho, atol=1e-12)

    def test_round_trip_from_ball(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            vec = rng.normal(size=3)
            vec *= rng.uniform() / max(np.linalg.norm(vec), 1.0)
            rho = qcore.state_from_bloch(*vec)
            qcore.validate_state(rho)
            assert_allclose(qcore.bloch_vector(rho), vec, atol=1e-12)

    def test_outside_ball_rejected(self):
        with pytest.raises(ValueError):
            qcore.state_from_bloch(1.0, 0.5, 0.0)


class TestValidation:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            qcore.validate_state(np.array([[0.5, 0.3], [0.1, 0.5]]))

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            qcore.validate_state(np.diag([0.7, 0.7]))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="semidefinite"):
            qcore.validate_state(np.diag([1.5, -0.5]))

    @pytest.mark.parametrize(
        "rho, message",
        [
            (np.eye(3) / 3, "2x2"),
            (np.array([[np.nan, 0.0], [0.0, 0.5]]), "finite"),
            (np.array([[0.5, np.inf], [0.0, 0.5]]), "finite"),
            (np.array([[np.nan, 0.3], [0.1, 2.0]]), "finite"),
            (np.array([[1.5, 0.3], [0.1, -0.5]]), "Hermitian"),
            (np.diag([1.7, -0.5]), "trace"),
            (np.diag([1.0 + 1e-9, -1e-9]), "semidefinite"),
        ],
    )
    def test_names_first_failure(self, rho, message):
        # Checks run in order shape, finite, Hermitian, trace, semidefinite;
        # NaN and infinite entries must never pass as valid.
        with pytest.raises(ValueError, match=message):
            qcore.validate_state(rho)
        if rho.shape == (2, 2):
            # the batched check applies the same conditions, behind a valid state
            stack = np.stack([qcore.IDENTITY / 2, rho, qcore.IDENTITY / 2]).astype(complex)
            with pytest.raises(ValueError, match=message):
                qcore._validate_states(stack)


def numpy_validate_state(rho):
    """validate_state's decision and messages, computed on numpy arrays."""
    rho = np.asarray(rho, dtype=complex)
    with np.errstate(invalid="ignore", over="ignore"):
        herm = np.abs(rho - rho.conj().T).max()
        tr = rho[0, 0] + rho[1, 1]
        trace_off = abs(tr - 1.0)
        det = (rho[0, 0] * rho[1, 1] - rho[0, 1] * rho[1, 0]).real
    if herm <= qcore.HERMITICITY_TOL and trace_off <= qcore.TRACE_TOL and det >= qcore._DET_FLOOR:
        return rho
    if not np.isfinite(rho).all():
        raise ValueError("density matrix entries must be finite")
    if herm > qcore.HERMITICITY_TOL:
        raise ValueError("density matrix is not Hermitian")
    if trace_off > qcore.TRACE_TOL:
        raise ValueError(f"density matrix trace must be 1, got {tr}")
    raise ValueError("density matrix must be positive semidefinite")


@st.composite
def adversarial_states(draw):
    """Physical states; states off in trace, Hermiticity or determinant by
    0.1x, 0.7x or 10x its tolerance; states with one special entry; and
    arbitrary complex matrices."""
    kind = draw(st.sampled_from(["physical", "special", "trace", "herm", "det", "raw"]))
    if kind == "raw":
        parts = draw(st.lists(st.floats(width=64), min_size=8, max_size=8))
        rho = np.empty((2, 2), dtype=complex)
        rho.real, rho.imag = np.reshape(parts[:4], (2, 2)), np.reshape(parts[4:], (2, 2))
        return rho
    unit = st.floats(min_value=-1.0, max_value=1.0)
    x, y, z = draw(unit), draw(unit), draw(unit)
    r = max(1.0, float(np.sqrt(x * x + y * y + z * z)))
    rho = qcore.state_from_bloch(x / r, y / r, z / r)
    # 0.7: an imaginary diagonal that fails Hermiticity (2|Im a|) but
    # would pass the trace check on its own
    scale = draw(st.sampled_from([-10.0, -0.7, -0.1, 0.1, 0.7, 10.0]))
    if kind == "special":
        i, j = draw(st.integers(0, 1)), draw(st.integers(0, 1))
        value, entry = draw(st.sampled_from(SPECIAL_FLOATS)), rho[i, j]
        rho[i, j] = complex(value, entry.imag) if draw(st.booleans()) else complex(entry.real, value)
    elif kind == "trace":
        rho[0, 0] += scale * qcore.TRACE_TOL
    elif kind == "herm":
        where = draw(st.sampled_from([(0, 0), (1, 1), (0, 1), (1, 0)]))
        rho[where] += draw(st.sampled_from([1.0, 1j])) * scale * qcore.HERMITICITY_TOL
    elif kind == "det":
        # |b|^2 = a d - scale * |floor|, so det = scale * |floor| at unit trace
        a = draw(st.floats(min_value=0.01, max_value=0.99))
        phase = np.exp(1j * draw(st.floats(min_value=0.0, max_value=6.3)))
        b = np.sqrt(a * (1.0 - a) - scale * abs(qcore.EIGENVALUE_FLOOR)) * phase
        rho = np.array([[a, b], [np.conj(b), 1.0 - a]])
    return rho


@pytest.mark.filterwarnings("error")
class TestScalarCheckParity:
    """validate_state runs on Python scalars; the batched check and the
    numpy form of the same conditions must agree with it on every input.
    Any exception but ValueError (OverflowError, say) fails, as does any
    warning."""

    @settings(max_examples=600, deadline=None)
    @given(rho=adversarial_states())
    def test_matches_batched_and_numpy_checks(self, rho):
        got = outcome(qcore.validate_state, rho)
        assert got == outcome(qcore._validate_states, rho[None])
        assert got == outcome(numpy_validate_state, rho)

    @pytest.mark.parametrize(
        "rho",
        [
            np.array([[1e308, 1.5e308], [-1.5e308, 0.5]]),
            np.array([[0.5, 1.5e308 + 1.5e308j], [0.0, 0.5]]),  # abs(b - conj c) overflows
            np.array([[1e308 + 1e308j, 0.0], [0.0, 1e308 - 1e308j]]),
            np.array([[1e154, 1e154], [1e154, 1e154]]),
            np.array([[np.inf, 0.0], [0.0, -np.inf]]),
            np.array([[0.5, np.nan], [np.nan, 0.5]]),
            np.array([[0.5, complex(0.0, np.inf)], [complex(0.0, np.inf), 0.5]]),
            np.array([[-0.0, 0.0], [-0.0, 1.0]]),
            np.array([[1.0, -0.0], [0.0, -0.0]]),
            np.diag([1.0 + 10 * qcore.TRACE_TOL, 0.0]),
            np.array([[0.5 + 10j * qcore.HERMITICITY_TOL, 0.0], [0.0, 0.5]]),
            np.array([[0.5, 0.0], [0.0, 0.5 + 0.7j * qcore.HERMITICITY_TOL]]),
            np.diag([1.0 + 10e-12, -10e-12]),
        ],
    )
    def test_adversarial_cases(self, rho):
        rho = rho.astype(complex)
        got = outcome(qcore.validate_state, rho)
        assert got == outcome(qcore._validate_states, rho[None])
        assert got == outcome(numpy_validate_state, rho)


class TestWaveplates:
    def test_hwp_trivial_and_rotation(self):
        out = qcore.hwp_matrix(0.0) @ qcore.KET_H
        assert_allclose(np.abs(out), [1.0, 0.0], atol=1e-15)
        out = qcore.hwp_matrix(np.pi / 8) @ qcore.KET_H
        assert_allclose(out, np.array([1.0, 1.0]) / np.sqrt(2), atol=1e-15)

    def test_hwp_maps_h_to_rotated_linear(self):
        for ang in np.linspace(-1.0, 1.0, 9):
            out = qcore.hwp_matrix(ang) @ qcore.KET_H
            target = np.array([np.cos(2 * ang), np.sin(2 * ang)])
            # equality up to global phase
            overlap = abs(np.vdot(target, out))
            assert overlap == pytest.approx(1.0, abs=1e-13)

    def test_qwp_circular(self):
        out = qcore.qwp_matrix(np.pi / 4) @ qcore.KET_H
        assert_allclose(np.abs(out), [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-13)
        rel_phase = np.angle(out[1] / out[0])
        assert abs(abs(rel_phase) - np.pi / 2) < 1e-13

    def test_unitarity(self):
        for ang in np.linspace(0, np.pi, 25):
            for mat in (qcore.hwp_matrix(ang), qcore.qwp_matrix(ang)):
                assert_allclose(mat @ mat.conj().T, np.eye(2), atol=1e-12)

    def test_matmul_associativity(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            a, b, c = (
                rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                for _ in range(3)
            )
            assert_allclose((a @ b) @ c, a @ (b @ c), atol=1e-14)


class TestPreparationChain:
    def test_setting_angles_for_45_degree_state(self):
        p, q = qcore.prep_angles(np.pi / 4, 0.0)
        assert p == pytest.approx(np.radians(33.75))
        assert q == pytest.approx(np.radians(22.5))

    def test_chain_output_amplitudes(self):
        # The full chain applied to |H> should give amplitude magnitudes
        # (cos(pi/4 - q), sin(pi/4 - q)) with relative phase phi.
        p, q = qcore.prep_angles(np.pi / 4, 0.0)
        amp = (
            qcore.qwp_matrix(np.pi / 4)
            @ qcore.hwp_matrix(p)
            @ qcore.qwp_matrix(q)
            @ qcore.KET_H
        )
        assert_allclose(np.abs(amp), [np.cos(np.pi / 4 - q), np.sin(np.pi / 4 - q)], atol=1e-13)
        assert np.angle(amp[1] / amp[0]) == pytest.approx(0.0, abs=1e-13)

    def test_chain_closed_form(self):
        # Closed form of the chain output, global phase prefactor included.
        rng = np.random.default_rng(5)
        for _ in range(100):
            th = rng.uniform(0, np.pi)
            ph = rng.uniform(0, 2 * np.pi)
            p, q = qcore.prep_angles(th, ph)
            amp = (
                qcore.qwp_matrix(np.pi / 4)
                @ qcore.hwp_matrix(p)
                @ qcore.qwp_matrix(q)
                @ qcore.KET_H
            )
            expected = np.exp(1j * (-2 * p + q + np.pi / 4)) * np.array(
                [
                    np.cos(np.pi / 4 - q),
                    np.exp(1j * (4 * p - 2 * q - np.pi / 2)) * np.sin(np.pi / 4 - q),
                ]
            )
            assert_allclose(amp, expected, atol=1e-12)

    def test_trivial_state(self):
        assert_allclose(prepare := qcore.prepare_via_waveplates(0.0, 0.0), np.diag([1.0, 0.0]), atol=1e-13)
        qcore.validate_state(prepare)

    @settings(max_examples=100, deadline=None)
    @given(theta=angles, phi=angles)
    def test_equivalence_with_direct_construction(self, theta, phi):
        rho_wp = qcore.prepare_via_waveplates(theta, phi)
        rho = qcore.make_pure_state(theta, phi)
        assert qcore.fidelity(rho_wp, rho) >= 1 - 1e-10

    def test_global_phase_never_matters(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            th = rng.uniform(0, np.pi)
            ph = rng.uniform(0, 2 * np.pi)
            p, q = qcore.prep_angles(th, ph)
            amp = np.array(
                [
                    np.cos(np.pi / 4 - q),
                    np.exp(1j * (4 * p - 2 * q - np.pi / 2)) * np.sin(np.pi / 4 - q),
                ]
            )
            with_prefactor = np.exp(1j * (-2 * p + q + np.pi / 4)) * amp
            assert_allclose(
                qcore.density_from_amplitudes(with_prefactor),
                qcore.density_from_amplitudes(amp),
                atol=1e-14,
            )


class TestFidelity:
    def test_identical_states(self):
        rho = qcore.make_pure_state(0.9, 0.4)
        assert qcore.fidelity(rho, rho) == pytest.approx(1.0, abs=1e-13)

    def test_orthogonal_states(self):
        assert qcore.fidelity(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) == pytest.approx(0.0, abs=1e-13)

    def test_against_eigen_oracle(self):
        # Full Uhlmann formula via explicit matrix square root.
        rng = np.random.default_rng(21)
        for _ in range(50):
            a = random_density_matrix(rng)
            b = random_density_matrix(rng)
            w, v = np.linalg.eigh(a)
            sqrt_a = (v * np.sqrt(np.clip(w, 0, None))) @ v.conj().T
            inner = sqrt_a @ b @ sqrt_a
            w2 = np.linalg.eigvalsh(inner)
            expected = np.sum(np.sqrt(np.clip(w2, 0, None))) ** 2
            assert qcore.fidelity(a, b) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize(
        "bad",
        # the first gave a fidelity of 1.933 with make_pure_state(0.3)
        [np.diag([2.0, -1.0]), np.full((2, 2), np.nan), np.eye(3) / 3],
        ids=["negative-eigenvalue", "nan", "3x3"],
    )
    def test_rejects_a_matrix_that_is_not_a_state(self, bad):
        good = qcore.make_pure_state(0.3)
        for pair in ((bad, good), (good, bad)):
            with pytest.raises(ValueError, match="density matrix"):
                qcore.fidelity(*pair)


class TestRotatePolarization:
    def test_turns_h_into_d_at_45_degrees(self):
        rotated = qcore.rotate_polarization(np.diag([1.0, 0.0]), np.pi / 4)
        assert_allclose(rotated, np.full((2, 2), 0.5), atol=1e-15)

    def test_rejects_a_matrix_that_is_not_a_state(self):
        with pytest.raises(ValueError, match="positive semidefinite"):
            qcore.rotate_polarization(np.diag([2.0, -1.0]), 0.3)
        with pytest.raises(ValueError, match="finite"):
            qcore.rotate_polarization(np.full((2, 2), np.nan), 0.3)

    @pytest.mark.parametrize("angle", [np.nan, np.inf, -np.inf])
    def test_rejects_a_non_finite_angle(self, angle):
        with pytest.raises(ValueError, match=f"angle must be finite, got {angle}"):
            qcore.rotate_polarization(qcore.make_pure_state(0.3), angle)
