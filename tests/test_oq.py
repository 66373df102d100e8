import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from oqlab import contexts, oq, qcore

from helpers import random_density_matrix


def random_probability_set(rng):
    """Arbitrary bundle: the three blocks need not be mutually consistent."""
    return contexts.ProbabilitySet(
        p_t1=rng.dirichlet([1.0, 1.0]),
        p_t2=rng.dirichlet([1.0, 1.0]),
        p_joint=rng.dirichlet([1.0] * 4).reshape(2, 2),
    )


def eq1_reference(ps):
    """Plain-float reimplementation of the defining formula, cell by cell."""
    w = np.empty((2, 2))
    for a1 in (0, 1):
        for a2 in (0, 1):
            joint = ps.p_joint[a1, a2]
            m1 = ps.p_joint[a1, 0] + ps.p_joint[a1, 1]
            m2 = ps.p_joint[0, a2] + ps.p_joint[1, a2]
            w[a1, a2] = joint + 0.5 * (ps.p_t1[a1] - m1) + 0.5 * (ps.p_t2[a2] - m2)
    return w


class TestNegativity:
    def test_flat(self):
        assert oq.negativity(np.full((2, 2), 0.25)) == 0.0

    def test_known_cells(self):
        w = np.array([[0.60355, 0.25], [0.25, -0.10355]])
        assert oq.negativity(w) == pytest.approx(0.10355, abs=1e-12)

    def test_simple_arithmetic(self):
        assert oq.negativity([[0.5, 0.5], [0.1, -0.1]]) == pytest.approx(0.1, abs=1e-15)

    def test_requires_normalization(self):
        with pytest.raises(ValueError):
            oq.negativity([[0.5, 0.5], [0.5, 0.5]])

    def test_zero_iff_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            w = rng.dirichlet([0.5] * 4).reshape(2, 2)
            assert oq.negativity(w) == 0.0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "w",
        [
            [[np.nan, 0.0], [0.0, 1.0]],
            [[np.inf, -np.inf], [0.0, 1.0]],
            [[np.inf, 0.0], [0.0, 1.0]],
            [[0.5, 0.5], [-np.inf, 0.0]],
        ],
    )
    def test_rejects_non_finite(self, w):
        with pytest.raises(ValueError, match="finite"):
            oq.negativity(w)

    def test_overflowing_sum_is_named(self):
        with pytest.raises(ValueError, match="sum to 1"):
            oq.negativity([[1e308, 1e308], [0.0, 0.0]])

    def test_bit_identical_to_numpy_expression(self):
        rng = np.random.default_rng(31)
        for i in range(1000):
            if i % 2:
                rho = random_density_matrix(rng)
            else:
                rho = qcore.make_pure_state(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))
            q = oq.oq_distribution(contexts.context_table(rho))
            assert q.negativity == float(0.5 * (np.abs(q.w) - q.w).sum())
            assert oq.negativity(q.w) == q.negativity


class TestOqDistribution:
    def test_depolarized(self):
        q = oq.oq_distribution(contexts.context_table(qcore.IDENTITY / 2))
        assert_allclose(q.w, np.full((2, 2), 0.25), atol=1e-15)
        assert q.negativity == 0.0

    def test_maximal_point(self):
        ps = contexts.context_table(qcore.make_pure_state(np.pi / 4, 0.0))
        q = oq.oq_distribution(ps)
        s2 = np.sqrt(2.0)
        assert_allclose(
            q.w, [[(1 + s2) / 4, 0.25], [0.25, (1 - s2) / 4]], atol=1e-14
        )
        assert q.negativity == pytest.approx((s2 - 1) / 4, abs=1e-14)
        assert q.negativity == pytest.approx(0.10355, abs=5e-6)

    def test_consistent_classical_bundle_recovers_joint(self):
        # When p_t1 and p_t2 equal the joint marginals the corrections
        # vanish and w is the joint distribution itself.
        rng = np.random.default_rng(1)
        for _ in range(50):
            joint = rng.dirichlet([1.0] * 4).reshape(2, 2)
            ps = contexts.ProbabilitySet(joint.sum(axis=1), joint.sum(axis=0), joint)
            q = oq.oq_distribution(ps)
            assert_allclose(q.w, joint, atol=1e-14)
            assert q.negativity == pytest.approx(0.0, abs=1e-14)
            assert np.max(q.nsit_dev) < 1e-14
            assert np.max(q.aot_dev) == 0.0

    def test_kernel_has_no_aot_deviation(self):
        # the sequential run leaves the first measurement's statistics
        # exactly undisturbed, and the kernel reproduces that bit for bit
        rng = np.random.default_rng(8)
        states = [random_density_matrix(rng) for _ in range(600)] + [
            qcore.make_pure_state(*rng.uniform(0.0, [np.pi, 2 * np.pi])) for _ in range(600)
        ]
        for rho in states:
            assert not oq.oq_distribution(contexts.context_table(rho)).aot_dev.any()
        _, _, _, aot = oq._quasi_rows(contexts._probabilities(np.stack(states)))
        assert aot.shape == (1200, 2) and not aot.any()

    def test_matches_cellwise_reference(self):
        rng = np.random.default_rng(2)
        sets = [random_probability_set(rng) for _ in range(200)]
        w, neg, nsit, aot = oq._quasi_rows(np.stack([contexts._vector(ps) for ps in sets]))
        for i, ps in enumerate(sets):
            q = oq.oq_distribution(ps)
            assert_allclose(q.w, eq1_reference(ps), atol=1e-14)
            # the batched entry agrees with the N = 1 path
            assert_allclose(w[i], q.w, rtol=0, atol=1e-15)
            assert_allclose([neg[i], *nsit[i], *aot[i]], [q.negativity, *q.nsit_dev, *q.aot_dev],
                            rtol=0, atol=1e-15)

    def test_structural_properties_random_bundles(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            ps = random_probability_set(rng)
            q = oq.oq_distribution(ps)
            assert abs(q.w.sum() - 1.0) < 1e-12
            assert_allclose(q.w.sum(axis=1), ps.p_t1, atol=1e-12)
            assert_allclose(q.w.sum(axis=0), ps.p_t2, atol=1e-12)
            if q.negativity > 1e-9:
                assert max(q.nsit_dev.max(), q.aot_dev.max()) > 1e-9

    def test_rejects_invalid_bundle(self):
        ps = contexts.ProbabilitySet([0.9, 0.3], [0.5, 0.5], np.full((2, 2), 0.25))
        with pytest.raises(ValueError):
            oq.oq_distribution(ps)

    def test_quantum_pipeline_satisfies_aot_not_nsit(self):
        q = oq.oq_distribution(contexts.context_table(qcore.make_pure_state(np.pi / 4, 0.0)))
        assert np.max(q.aot_dev) == 0.0
        # second-measurement disturbance: |x|/2 per outcome
        assert_allclose(q.nsit_dev, [np.sin(np.pi / 4) / 2] * 2, atol=1e-14)


class TestClosedForm:
    def test_origin(self):
        assert_allclose(oq.oq_closed_form(0.0, 0.0), np.full((2, 2), 0.25), atol=1e-15)

    def test_maximal_point(self):
        w = oq.oq_closed_form(np.sin(np.pi / 4), np.cos(np.pi / 4))
        assert_allclose(
            w.ravel(), [0.60355, 0.25, 0.25, -0.10355], atol=5e-6
        )

    def test_equator_point(self):
        assert_allclose(
            oq.oq_closed_form(1.0, 0.0), [[0.5, 0.0], [0.5, 0.0]], atol=1e-15
        )

    def test_outside_disk_rejected(self):
        with pytest.raises(ValueError):
            oq.oq_closed_form(0.9, 0.9)
        with pytest.raises(ValueError):
            oq.negativity_region(1.2, 0.0)

    @settings(max_examples=200, deadline=None)
    @given(
        theta=st.floats(min_value=0.0, max_value=np.pi, allow_nan=False),
        phi=st.floats(min_value=0.0, max_value=2 * np.pi, allow_nan=False),
    )
    def test_pipeline_equals_closed_form_pure(self, theta, phi):
        rho = qcore.make_pure_state(theta, phi)
        x, _, z = qcore.bloch_vector(rho)
        q = oq.oq_distribution(contexts.context_table(rho))
        assert_allclose(q.w, oq.oq_closed_form(x, z), atol=1e-12)
        assert q.negativity == pytest.approx(oq.negativity_region(x, z), abs=1e-12)

    def test_pipeline_equals_closed_form_mixed(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            rho = random_density_matrix(rng)
            x, _, z = qcore.bloch_vector(rho)
            q = oq.oq_distribution(contexts.context_table(rho))
            assert_allclose(q.w, oq.oq_closed_form(x, z), atol=1e-12)

    def test_mixture_point(self):
        rho = qcore.make_mixed_state(np.pi / 4, np.pi / 4 + np.pi, 0.8)
        x, _, z = qcore.bloch_vector(rho)
        n = oq.negativity_region(x, z)
        assert n == pytest.approx((0.8 * np.sqrt(2) - 1) / 4, abs=1e-14)
        assert n == pytest.approx(0.03284, abs=5e-6)
        q = oq.oq_distribution(contexts.context_table(rho))
        assert q.negativity == pytest.approx(n, abs=1e-13)


class TestNegativityRegion:
    def test_diamond_boundary_zero(self):
        for t in np.linspace(0, 2 * np.pi, 37):
            x = np.cos(t) / (abs(np.cos(t)) + abs(np.sin(t)))
            z = np.sin(t) / (abs(np.cos(t)) + abs(np.sin(t)))
            assert oq.negativity_region(x, z) == 0.0

    def test_inside_diamond_zero_outside_positive(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            t = rng.uniform(0, 2 * np.pi)
            r = rng.uniform(0, 1)
            x, z = r * np.cos(t), r * np.sin(t)
            n = oq.negativity_region(x, z)
            if abs(x) + abs(z) <= 1.0:
                assert n == 0.0
            else:
                assert n > 0.0
                assert n == pytest.approx((abs(x) + abs(z) - 1) / 4, abs=1e-15)

    def test_supremum(self):
        # max over the disk of (|x|+|z|-1)/4 sits at |x| = |z| = 1/sqrt(2)
        assert oq.negativity_region(1 / np.sqrt(2), 1 / np.sqrt(2)) == pytest.approx(
            oq.MAX_NEGATIVITY, abs=1e-15
        )
        rng = np.random.default_rng(6)
        for _ in range(2000):
            t = rng.uniform(0, 2 * np.pi)
            r = np.sqrt(rng.uniform())
            assert oq.negativity_region(r * np.cos(t), r * np.sin(t)) <= oq.MAX_NEGATIVITY + 1e-12

    def test_nsit_violation_with_zero_negativity(self):
        # Disturbance without negativity: any interior point with x != 0.
        rho = qcore.state_from_bloch(0.4, 0.0, 0.3)
        q = oq.oq_distribution(contexts.context_table(rho))
        assert q.negativity == 0.0
        assert np.max(q.nsit_dev) > 0.1
