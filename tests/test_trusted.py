"""Results the package builds without running their dataclass checks.

context_table, oq_distribution, simulate_counts, generate_click_streams
and and_gate build their results with contexts._trusted, skipping
__post_init__. These tests pin that each such result is the one the
public constructor would build, bit for bit, that the public
constructors still convert and check, and that a kept result costs no
more memory than a publicly built one.
"""

import copy
import dataclasses
import math
import pickle
import tracemalloc

import numpy as np
import pytest

from oqlab import contexts, oq, qcore
from oqlab.contexts import ProbabilitySet, context_table
from oqlab.oq import Quasiprobability, oq_distribution
from oqlab.photonsim import (
    ClickStream,
    CountTable,
    DetectorModel,
    HeraldedSPDC,
    SingleEmitter,
    WeakCoherent,
    and_gate,
    generate_click_streams,
    simulate_counts,
)

from helpers import random_pure_state_angles


def random_states(n, seed):
    """n // 2 pure and n - n // 2 mixed states, the mixed ones inside the ball."""
    rng = np.random.default_rng(seed)
    pure = [qcore.make_pure_state(*random_pure_state_angles(rng)) for _ in range(n // 2)]
    mixed = []
    for _ in range(n - n // 2):
        direction = rng.normal(size=3)
        direction *= rng.uniform() ** (1.0 / 3.0) / np.linalg.norm(direction)
        mixed.append(qcore.state_from_bloch(*direction))
    return pure + mixed


def assert_identical(a, b):
    """Same class, same repr, and every field equal bit for bit."""
    assert type(a) is type(b)
    assert repr(a) == repr(b)
    for field in dataclasses.fields(a):
        x, y = getattr(a, field.name), getattr(b, field.name)
        assert type(x) is type(y), field.name
        if isinstance(x, np.ndarray):
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), field.name
        elif isinstance(x, float):
            assert x.hex() == y.hex(), field.name
        else:
            assert x == y, field.name


def public_context_table(rho):
    blocks = contexts._split(contexts._probabilities(qcore.validate_state(rho)))
    return ProbabilitySet(*blocks)


def public_oq_distribution(ps):
    out = contexts._vector(contexts.validate_probability_set(ps)) @ oq._EQ1_MATRIX
    return Quasiprobability(
        w=out[:4].reshape(2, 2).copy(),
        negativity=oq.negativity(out[:4]),
        nsit_dev=np.abs(out[6:]),
        aot_dev=np.abs(out[4:6]),
    )


class TestExactResults:
    def test_match_the_public_constructors_bit_for_bit(self):
        for rho in random_states(2000, seed=2024):
            ps = context_table(rho)
            assert_identical(ps, public_context_table(rho))
            q = oq_distribution(ps)
            assert_identical(q, public_oq_distribution(public_context_table(rho)))
            # the same bundle as lists goes through the public conversion and
            # the concatenating path of the check
            listed = ProbabilitySet(ps.p_t1.tolist(), ps.p_t2.tolist(), ps.p_joint.tolist())
            assert_identical(oq_distribution(listed), q)

    def test_check_reads_the_kept_kernel_vector(self):
        ps = context_table(qcore.make_pure_state(0.7, 0.2))
        assert all(block.base is ps._flat for block in (ps.p_t1, ps.p_t2, ps.p_joint))
        assert contexts._checked_vector(ps, 1e-9) is ps._flat
        assert ProbabilitySet._flat is None

    @pytest.mark.parametrize(
        "clone",
        [copy.deepcopy, lambda ps: pickle.loads(pickle.dumps(ps))],
        ids=["deepcopy", "pickle"],
    )
    def test_edited_copy_is_still_checked(self, clone):
        ps = clone(context_table(qcore.make_pure_state(0.7, 0.2)))
        # the copy keeps a vector, but its blocks are no longer views of it
        assert ps._flat is not None and ps.p_t1.base is not ps._flat
        ps.p_t1[0] += 0.25
        with pytest.raises(ValueError, match="p_t1 does not sum to 1"):
            oq_distribution(ps)

    def test_edited_result_is_still_checked(self):
        ps = context_table(qcore.make_pure_state(0.7, 0.2))
        ps.p_joint[1, 1] = -0.5
        with pytest.raises(ValueError, match="p_joint has negative entries"):
            oq_distribution(ps)


DETECTORS = {
    "bench": DetectorModel(),
    "ideal": DetectorModel.ideal(),
    "widest-jitter": DetectorModel.ideal(timing_jitter_ns=1.0e9, dark_rate_hz=1.0e5),
}


class TestPhotonsimResults:
    @pytest.mark.parametrize("det", DETECTORS.values(), ids=DETECTORS.keys())
    @pytest.mark.parametrize("src", [WeakCoherent(), SingleEmitter(), HeraldedSPDC()],
                             ids=["weak-coherent", "single-emitter", "heralded-spdc"])
    def test_click_streams_pass_the_public_check(self, src, det):
        for seed in range(5):
            for stream in generate_click_streams(src, 0.002, det=det, seed=seed):
                assert_identical(stream, ClickStream(stream.times_ns, stream.detector))

    def test_and_gate_results_pass_the_public_check(self):
        a = ClickStream([0.0, 10.0, 20.0], detector="a")
        b = ClickStream([0.4, 15.0, 19.0], detector="b")
        for out in (and_gate(a, b, 1.5), and_gate(a, ClickStream([]), 1.5)):
            assert_identical(out, ClickStream(out.times_ns, out.detector))

    @pytest.mark.parametrize("det", DETECTORS.values(), ids=DETECTORS.keys())
    def test_count_tables_match_the_public_constructor(self, det):
        rho = qcore.make_pure_state(math.pi / 4)
        for setup in contexts.SETUPS:
            table = simulate_counts(rho, np.array(setup), 500, det=det, seed=3)
            assert_identical(table, CountTable(table.setup, table.counts, table.total))
            assert table.setup == setup and type(table.setup[0]) is int


class TestPublicConstructors:
    def test_lists_become_arrays(self):
        ps = ProbabilitySet([1, 0], [0.5, 0.5], [[0.5, 0.5], [0, 0]])
        assert all(block.dtype == np.float64 for block in (ps.p_t1, ps.p_t2, ps.p_joint))
        q = Quasiprobability([[1, 0], [0, 0]], 0.0, [0, 0], [0, 0])
        assert all(a.dtype == np.float64 for a in (q.w, q.nsit_dev, q.aot_dev))
        assert ClickStream([1, 2], detector=0).times_ns.dtype == np.float64
        table = CountTable(setup=[1, 1], counts=[[1, 2], [3, 4]], total=10)
        assert table.counts.dtype == np.int64
        assert table.setup == (1, 1)


def test_kept_results_take_no_more_memory_than_public_ones():
    # an instance built field by field keeps CPython's key-sharing attribute
    # dict; one filled in another order would carry a dict of its own
    sets = [context_table(rho) for rho in random_states(8192, seed=7)]

    def retained(build, inputs):
        tracemalloc.start()
        try:
            kept = [build(ps) for ps in inputs]
            size, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(kept) == len(inputs)
        return size

    def public(ps):
        q = oq_distribution(ps)
        return Quasiprobability(q.w, q.negativity, q.nsit_dev, q.aot_dev)

    # a first traced run pays a few kB of one-off allocations, so each
    # result is allowed 8 bytes; a dict of its own would cost 64 or more
    retained(oq_distribution, sets[:64])
    retained(public, sets[:64])
    assert retained(oq_distribution, sets) <= retained(public, sets) + 8 * len(sets)
