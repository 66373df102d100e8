import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from oqlab import contexts, qcore

from helpers import SPECIAL_FLOATS, outcome, random_density_matrix


class TestProjectors:
    def test_hv(self):
        hv = contexts.hv_projectors()
        assert_allclose(hv[0], np.diag([1.0, 0.0]), atol=1e-15)
        assert_allclose(hv[1], np.diag([0.0, 1.0]), atol=1e-15)

    def test_da(self):
        da = contexts.da_projectors()
        assert_allclose(da[0], np.full((2, 2), 0.5), atol=1e-15)
        assert_allclose(da[1], np.array([[0.5, -0.5], [-0.5, 0.5]]), atol=1e-15)

    def test_orthogonal_complete(self):
        for pair in (contexts.hv_projectors(), contexts.da_projectors()):
            assert_allclose(pair[0] @ pair[1], np.zeros((2, 2)), atol=1e-15)
            assert_allclose(pair[0] + pair[1], np.eye(2), atol=1e-15)
            for p in pair:
                assert_allclose(p @ p, p, atol=1e-15)


class TestTraceMatrix:
    def test_entries_are_exact_halves(self):
        m = contexts._TRACE_MATRIX
        assert m.dtype == np.float64 and m.shape == (4, 8)
        assert set(np.unique(m).tolist()) <= {0.0, 0.5, -0.5, 1.0}

    def test_matches_projector_products(self):
        # Tr[M rho] = sum_ij M_ji rho_ij: column k holds operator k transposed
        hv, da = contexts.hv_projectors(), contexts.da_projectors()
        ops = [*hv, *da, *(hv[a1] @ da[a2] @ hv[a1] for a1 in (0, 1) for a2 in (0, 1))]
        products = np.stack([m.T.ravel() for m in ops], axis=1)
        assert np.abs(contexts._TRACE_MATRIX - products).max() <= 2.3e-16

    def test_bytes_are_pinned(self):
        # the bytes, signed zeros included (np.maximum(p, 0.0) keeps a -0.0
        # that the scans would print), and the layout the kernel's matmul reads
        m = contexts._TRACE_MATRIX
        assert m.flags.c_contiguous
        assert hashlib.sha256(m.tobytes()).hexdigest() == (
            "055d037c7f68fb52c60eabbbea0dff49840a680cc0e451b6ae478c4606cf0703")


turns = st.floats(-0.2, 0.2, allow_nan=False)


class TestStackedBuilder:
    @settings(max_examples=200, deadline=None)
    @given(
        setups=st.lists(st.sampled_from(contexts.SETUPS), min_size=1, max_size=6),
        data=st.data(),
        leaks=st.tuples(*[st.floats(0.0, 0.5, exclude_max=True)] * 2),
        efficiency=st.tuples(*[st.floats(1e-3, 1.0)] * 4),
    )
    def test_each_row_is_its_single_setup_build(self, setups, data, leaks, efficiency):
        n = len(setups)
        prep = np.array(data.draw(st.lists(turns, min_size=n, max_size=n)))
        arms = np.array(data.draw(st.lists(st.tuples(turns, turns), min_size=n, max_size=n)))
        stacked = contexts._effective_operators(setups, prep, arms, leaks, efficiency)
        assert stacked.shape == (n, 4, 4)
        for k, setup in enumerate(setups):
            single = contexts._effective_operators(setup, prep[k], arms[k], leaks, efficiency)
            assert stacked[k].tobytes() == single.tobytes()

    def test_ideal_stack_is_the_ideal_single_builds(self):
        stacked = contexts._effective_operators(list(contexts.SETUPS))
        for k, setup in enumerate(contexts.SETUPS):
            assert stacked[k].tobytes() == contexts._effective_operators(setup).tobytes()


class TestSingleProbs:
    def test_h_state(self):
        assert_allclose(
            contexts.single_probs(np.diag([1.0, 0.0]), contexts.HV), [1.0, 0.0], atol=1e-15
        )

    def test_45_degree_state(self):
        rho = qcore.make_pure_state(np.pi / 4, 0.0)
        # oracle: p = (1 +- z)/2 and (1 +- x)/2 from the Bloch components
        x, _, z = qcore.bloch_vector(rho)
        assert_allclose(
            contexts.single_probs(rho, contexts.HV), [(1 + z) / 2, (1 - z) / 2], atol=1e-14
        )
        assert_allclose(
            contexts.single_probs(rho, contexts.DA), [(1 + x) / 2, (1 - x) / 2], atol=1e-14
        )
        assert_allclose(contexts.single_probs(rho, contexts.HV), [0.85355, 0.14645], atol=5e-6)
        assert_allclose(contexts.single_probs(rho, contexts.DA), [0.85355, 0.14645], atol=5e-6)

    def test_normalization_random(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            rho = random_density_matrix(rng)
            for basis in (contexts.HV, contexts.DA):
                p = contexts.single_probs(rho, basis)
                assert np.all(p >= 0)
                assert abs(p.sum() - 1.0) < 1e-12

    def test_bad_basis(self):
        with pytest.raises(ValueError):
            contexts.single_probs(np.eye(2) / 2, "XY")


class TestSequentialProbs:
    def test_h_input(self):
        joint = contexts.sequential_probs(np.diag([1.0, 0.0]))
        assert_allclose(joint, [[0.5, 0.5], [0.0, 0.0]], atol=1e-15)

    def test_45_degree_state(self):
        joint = contexts.sequential_probs(qcore.make_pure_state(np.pi / 4, 0.0))
        assert_allclose(
            joint.ravel(), [0.42678, 0.42678, 0.07322, 0.07322], atol=5e-6
        )

    def test_brute_force_matrix_oracle(self):
        # Recompute through explicit Kraus-style updates with fresh matrices.
        rng = np.random.default_rng(4)
        d = np.array([1.0, 1.0]) / np.sqrt(2)
        a = np.array([1.0, -1.0]) / np.sqrt(2)
        for _ in range(100):
            rho = random_density_matrix(rng)
            expected = np.empty((2, 2))
            for a1, ket1 in enumerate((np.array([1.0, 0.0]), np.array([0.0, 1.0]))):
                weight = rho[a1, a1].real
                collapsed = np.outer(ket1, ket1)
                for a2, ket2 in enumerate((d, a)):
                    expected[a1, a2] = weight * (ket2 @ collapsed @ ket2).real
            assert_allclose(contexts.sequential_probs(rho), expected, atol=1e-13)

    def test_joint_is_half_first_marginal(self):
        # H/V eigenstates are unbiased in D/A, so each joint cell is half
        # the corresponding first-measurement probability.
        rng = np.random.default_rng(5)
        for _ in range(200):
            rho = random_density_matrix(rng)
            joint = contexts.sequential_probs(rho)
            p1 = contexts.single_probs(rho, contexts.HV)
            assert_allclose(joint, np.column_stack([p1, p1]) / 2, atol=1e-13)

    def test_marginal_equals_single_hv(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            rho = random_density_matrix(rng)
            joint = contexts.sequential_probs(rho)
            assert_allclose(
                joint.sum(axis=1), contexts.single_probs(rho, contexts.HV), atol=1e-12
            )

    def test_second_marginal_disturbed(self):
        # The D/A distribution of the sequential run is flat, while the
        # undisturbed single measurement is not: the sequence signals.
        rho = qcore.make_pure_state(np.pi / 4, 0.0)
        joint = contexts.sequential_probs(rho)
        assert_allclose(joint.sum(axis=0), [0.5, 0.5], atol=1e-13)
        assert contexts.single_probs(rho, contexts.DA)[0] == pytest.approx(0.85355, abs=5e-6)


def _floor_states():
    """Valid states whose lowest eigenvalue sits just below zero.

    They pass validation (det clears the round-off floor), yet some of
    their Born-rule traces are slightly negative, so the kernel's clip
    to 0 applies.
    """
    eps = 5e-13
    return [
        np.diag([1.0 + eps, -eps]).astype(complex),
        np.diag([-eps, 1.0 + eps]).astype(complex),
        qcore.state_from_bloch(1.0 + eps, 0.0, 0.0),
        qcore.state_from_bloch(-(1.0 + eps), 0.0, 0.0),
    ]


def _written_definition(rho):
    """All eight probabilities from explicit matrix products, clipped at 0.

    p_t1 = Tr[Pi_HV(a1) rho], p_t2 = Tr[Pi_DA(a2) rho] and, as written in
    the sequential_probs docstring, P(a1, a2) = Tr[Pi_DA(a2) Pi_HV(a1)
    rho Pi_HV(a1)].
    """
    hv, da = contexts.hv_projectors(), contexts.da_projectors()
    p_t1 = [np.trace(hv[a1] @ rho).real for a1 in (0, 1)]
    p_t2 = [np.trace(da[a2] @ rho).real for a2 in (0, 1)]
    joint = [
        np.trace(da[a2] @ hv[a1] @ rho @ hv[a1]).real for a1 in (0, 1) for a2 in (0, 1)
    ]
    return np.maximum(np.array(p_t1 + p_t2 + joint), 0.0)


class TestKernelMatchesDefinition:
    def _states(self):
        rng = np.random.default_rng(21)
        states = [random_density_matrix(rng) for _ in range(200)] + _floor_states()
        for rho in states:
            qcore.validate_state(rho)
        return states

    def test_floor_states_are_clipped(self):
        for rho in _floor_states():
            raw = np.array(
                [np.trace(m @ rho).real for m in (*contexts.hv_projectors(), *contexts.da_projectors())]
            )
            assert raw.min() < 0.0
            assert _written_definition(rho).min() == 0.0

    def test_single_state(self):
        for rho in self._states():
            expected = _written_definition(rho)
            ps = contexts.context_table(rho)
            got = np.concatenate([ps.p_t1, ps.p_t2, ps.p_joint.ravel()])
            assert_allclose(got, expected, rtol=0, atol=1e-15)
            assert_allclose(contexts.sequential_probs(rho).ravel(), expected[4:], rtol=0, atol=1e-15)
            assert_allclose(contexts.single_probs(rho, contexts.HV), expected[0:2], rtol=0, atol=1e-15)
            assert_allclose(contexts.single_probs(rho, contexts.DA), expected[2:4], rtol=0, atol=1e-15)

    def test_stack(self):
        states = self._states()
        expected = np.array([_written_definition(rho) for rho in states])
        got = contexts._probabilities(qcore._validate_states(np.stack(states)))
        assert got.shape == (len(states), 8)
        assert_allclose(got, expected, rtol=0, atol=1e-15)


class TestContextTable:
    def test_depolarized(self):
        ps = contexts.context_table(qcore.IDENTITY / 2)
        assert_allclose(ps.p_t1, [0.5, 0.5], atol=1e-15)
        assert_allclose(ps.p_t2, [0.5, 0.5], atol=1e-15)
        assert_allclose(ps.p_joint, np.full((2, 2), 0.25), atol=1e-15)

    def test_diagonal_input(self):
        ps = contexts.context_table(qcore.make_pure_state(np.pi / 2, 0.0))
        assert_allclose(ps.p_t2, [1.0, 0.0], atol=1e-13)
        assert_allclose(ps.p_t1, [0.5, 0.5], atol=1e-13)
        assert_allclose(ps.p_joint, np.full((2, 2), 0.25), atol=1e-13)

    def test_validation_passes_for_generated_tables(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            ps = contexts.context_table(random_density_matrix(rng))
            contexts.validate_probability_set(ps, atol=1e-12)

    def test_validation_rejects_bad_sets(self):
        good = contexts.context_table(qcore.IDENTITY / 2)
        bad = contexts.ProbabilitySet([0.7, 0.7], good.p_t2, good.p_joint)
        with pytest.raises(ValueError, match="sum to 1"):
            contexts.validate_probability_set(bad)
        bad = contexts.ProbabilitySet([1.5, -0.5], good.p_t2, good.p_joint)
        with pytest.raises(ValueError, match="negative"):
            contexts.validate_probability_set(bad)

    @pytest.mark.parametrize(
        "blocks, message",
        [
            (([np.nan, 0.5], [0.5, 0.5], np.full((2, 2), 0.25)), "p_t1 has non-finite"),
            (([0.5, 0.5], [np.inf, 0.5], np.full((2, 2), 0.25)), "p_t2 has non-finite"),
            (([0.5, 0.5], [0.5, 0.5], [[0.25, 0.25], [np.nan, 0.25]]), "p_joint has non-finite"),
            (([0.5, 0.5], [0.5, 0.5], [[np.inf, -np.inf], [0.25, 0.25]]), "p_joint has non-finite"),
            (([1.5, -0.5], [0.5, 0.5], [[np.nan, 0.25], [0.25, 0.25]]), "p_t1 has negative"),
            (([0.5, 0.5], [0.7, 0.7], [[1.5, -0.5], [0.0, 0.0]]), "p_t2 does not sum to 1"),
            (([0.5, 0.5], [0.5, 0.5], [[1.5, -0.5], [0.0, 0.0]]), "p_joint has negative"),
        ],
    )
    def test_validation_names_first_failure(self, blocks, message):
        # Non-finite entries are rejected, and the first failing block and
        # check (finite, negative, sum) is the one named.
        with pytest.raises(ValueError, match=message):
            contexts.validate_probability_set(contexts.ProbabilitySet(*blocks))
        # the batched check names the same failure, behind a valid row
        good = contexts._vector(contexts.context_table(qcore.IDENTITY / 2))
        bad = np.concatenate([np.ravel(b) for b in blocks])
        with pytest.raises(ValueError, match=message):
            contexts._validate_vectors(np.stack([good, bad, good]))

    def test_setup_validation(self):
        assert contexts.validate_setup((1, 0)) == (1, 0)
        with pytest.raises(ValueError):
            contexts.validate_setup((2, 0))


def numpy_validate_probability_set(ps, atol):
    """validate_probability_set's decision and messages, computed on numpy arrays."""
    flat = contexts._vector(ps)
    with np.errstate(invalid="ignore", over="ignore"):
        sums = np.add.reduceat(flat, contexts._BLOCK_STARTS)
        if flat.min() >= -atol and np.abs(sums - 1.0).max() <= atol:
            return ps
        for name, block in (("p_t1", ps.p_t1), ("p_t2", ps.p_t2), ("p_joint", ps.p_joint)):
            if not np.isfinite(block).all():
                raise ValueError(f"{name} has non-finite entries")
            if block.min() < -atol:
                raise ValueError(f"{name} has negative entries")
            if abs(block.sum() - 1.0) > atol:
                raise ValueError(f"{name} does not sum to 1 (sum = {block.sum()!r})")
    return ps


@st.composite
def adversarial_vectors(draw, atol):
    """Valid sets, sets with one entry moved by 0.1x or 10x atol, or below
    zero by as much in a block that still sums to 1, one special entry, or
    arbitrary floats, as (8,) vectors in _split layout."""
    kind = draw(st.sampled_from(["valid", "special", "shift", "negative", "raw"]))
    if kind == "raw":
        return np.array(draw(st.lists(st.floats(width=64), min_size=8, max_size=8)))
    unit = st.floats(min_value=0.0, max_value=1.0)
    u, v = draw(unit), draw(unit)
    joint = np.array([draw(unit) for _ in range(4)]) + 1e-3
    p = np.concatenate(([u, 1.0 - u], [v, 1.0 - v], joint / joint.sum()))
    i = draw(st.integers(0, 7))
    if kind == "special":
        p[i] = draw(st.sampled_from(SPECIAL_FLOATS))
    elif kind == "shift":
        p[i] += draw(st.sampled_from([-10.0, -0.1, 0.1, 10.0])) * atol
    elif kind == "negative":
        # entry i goes below zero, its block still sums to 1
        block = (0, 1) if i < 2 else (2, 3) if i < 4 else (4, 5, 6, 7)
        j = draw(st.sampled_from([k for k in block if k != i]))
        shift = draw(st.sampled_from([0.1, 10.0])) * atol
        p[j] += p[i] + shift
        p[i] = -shift
    return p


@pytest.mark.filterwarnings("error")
class TestScalarCheckParity:
    """validate_probability_set runs on Python floats; the batched check and
    the numpy form of the same conditions must agree with it on every input.
    Any exception but ValueError fails, as does any warning."""

    @pytest.mark.parametrize("atol", [1e-9, 1e-3])
    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_matches_batched_and_numpy_checks(self, atol, data):
        p = data.draw(adversarial_vectors(atol))
        ps = contexts.ProbabilitySet(*contexts._split(p))
        got = outcome(contexts.validate_probability_set, ps, atol)
        assert got == outcome(contexts._validate_vectors, p[None], atol)
        assert got == outcome(numpy_validate_probability_set, ps, atol)

    @pytest.mark.parametrize("atol", [1e-9, 1e-3])
    @pytest.mark.parametrize(
        "p",
        [
            [1e308, 1e308, 0.5, 0.5, 0.25, 0.25, 0.25, 0.25],  # block sum overflows
            [0.5, 0.5, 0.5, 0.5, 1e308, 1e308, -1e308, 0.25],
            [0.5, 0.5, 0.5, 0.5, 1e154, -1e154, 0.5, 0.5],
            [0.5, 0.5, 0.5, 0.5, np.inf, -np.inf, 0.5, 0.5],
            [np.nan, 1.0, 0.5, 0.5, 0.25, 0.25, 0.25, 0.25],
            [1.0, np.nan, 0.5, 0.5, 0.25, 0.25, 0.25, 0.25],
            [-0.0, 1.0, 1.0, -0.0, -0.0, 1.0, -0.0, -0.0],
            [0.5, 0.5, 0.5, 0.5, 1e16, 1.0, -1e16, 0.0],
        ],
    )
    def test_adversarial_cases(self, p, atol):
        p = np.array(p)
        ps = contexts.ProbabilitySet(*contexts._split(p))
        got = outcome(contexts.validate_probability_set, ps, atol)
        assert got == outcome(contexts._validate_vectors, p[None], atol)
        assert got == outcome(numpy_validate_probability_set, ps, atol)
