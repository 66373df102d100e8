"""Results the package builds without running their dataclass checks.

Each of these builds its results through the constructor that
contexts._trusted generates for the result class, skipping
__post_init__:

* context_table: ProbabilitySet, keeping its kernel vector as _flat;
* oq_distribution: Quasiprobability;
* simulate_counts (and every counting run) and count_tables_from_csv:
  CountTable;
* generate_click_streams and and_gate: ClickStream, the weak-coherent
  and single-emitter channels keeping their labelled stream as _labelled;
* analyze: its ErrorBudget.

These tests pin that each such result is the one the public constructor
would build, bit for bit, that the public constructors still convert and
check, and that a kept result of every class costs no more memory than a
publicly built one.
"""

import copy
import dataclasses
import math
import pickle
import tracemalloc

import numpy as np
import pytest

from oqlab import analysis, contexts, oq, photonsim, qcore
from oqlab.analysis import ErrorBudget, analyze, simulate_record
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
    count_tables_from_csv,
    count_tables_to_csv,
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

    def test_results_own_their_arrays(self):
        # a view would keep a spare base array alive with every kept result
        for rho in random_states(20, seed=5):
            ps = context_table(rho)
            q = oq_distribution(ps)
            assert ps._flat.base is None
            assert q.w.base is None and q.nsit_dev.base is None and q.aot_dev.base is None

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

    def test_count_tables_read_back_match_the_public_constructor(self, tmp_path):
        path = tmp_path / "counts.csv"
        rec = simulate_record(qcore.make_pure_state(math.pi / 4), 500, seed=3)
        # two appended rows add to cells already read, one of them past the
        # int32 range
        count_tables_to_csv(rec.tables.values(), path)
        with open(path, "a") as fh:
            fh.write("1,1,0,1,3000000000\n0,0,1,0,7\n")
        read = count_tables_from_csv(path)
        assert list(read) == list(contexts.SETUPS)
        for setup, table in read.items():
            assert_identical(table, CountTable(table.setup, table.counts, table.total))
            assert type(table.setup[0]) is int and type(table.total) is int
        assert read[(1, 1)].counts[0, 1] == rec.tables[(1, 1)].counts[0, 1] + 3000000000


class TestAnalysisResults:
    @pytest.mark.parametrize("error_mode", ["rss", "sum"])
    @pytest.mark.parametrize("n_boot", [None, 0, 20], ids=["delta", "off", "bootstrap"])
    def test_error_budget_matches_the_public_constructor(self, n_boot, error_mode):
        for theta in (0.0, math.pi / 6, math.pi / 4, math.pi / 2):
            rec = simulate_record(qcore.make_pure_state(theta), 2000, seed=9)
            for mode in ("lab", "strict"):
                _, budget = analyze(rec, mode=mode, error_mode=error_mode, n_boot=n_boot, seed=1)
                values = (getattr(budget, f.name) for f in dataclasses.fields(budget))
                assert_identical(budget, ErrorBudget(*values))
                for (name, err, times), public in zip(
                        budget.component_errors, analysis._components(budget.component_errors)):
                    assert (type(name), type(err), type(times)) == tuple(map(type, public))


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


def retained(build, inputs):
    """Bytes still held by the results of build over inputs."""
    tracemalloc.start()
    try:
        kept = [build(x) for x in inputs]
        size, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(kept) == len(inputs)
    return size


def test_kept_results_take_no_more_memory_than_public_ones():
    # an instance built field by field keeps CPython's key-sharing attribute
    # dict; one filled in another order would carry a dict of its own
    sets = [context_table(rho) for rho in random_states(8192, seed=7)]

    def public(ps):
        q = oq_distribution(ps)
        return Quasiprobability(q.w, q.negativity, q.nsit_dev, q.aot_dev)

    # a first traced run pays a few kB of one-off allocations, so each
    # result is allowed 8 bytes; a dict of its own would cost 64 or more
    retained(oq_distribution, sets[:64])
    retained(public, sets[:64])
    assert retained(oq_distribution, sets) <= retained(public, sets) + 8 * len(sets)


def kept_samples():
    """A few results of each class as the package builds them."""
    rho = qcore.make_pure_state(math.pi / 4)
    streams = [*generate_click_streams(WeakCoherent(), 0.001, seed=1),
               *generate_click_streams(HeraldedSPDC(), 0.001, seed=1)]
    return {
        ProbabilitySet: [context_table(r) for r in random_states(8, seed=3)],
        Quasiprobability: [oq_distribution(context_table(r)) for r in random_states(8, seed=3)],
        CountTable: list(simulate_record(rho, 100, seed=2).tables.values()),
        ClickStream: streams,
        ErrorBudget: [analyze(simulate_record(rho, 100, seed=2), error_mode=m)[1]
                      for m in ("rss", "sum")],
    }


# each class's generated constructor, and the non-field attribute it sets
GENERATED = {
    ProbabilitySet: (contexts._new_probability_set, "_flat"),
    Quasiprobability: (oq._new_quasiprobability, None),
    CountTable: (photonsim._new_count_table, None),
    ClickStream: (photonsim._new_click_stream, "_labelled"),
    ErrorBudget: (analysis._new_error_budget, None),
}


@pytest.mark.parametrize("cls", GENERATED, ids=lambda cls: cls.__name__)
def test_every_generated_constructor_keeps_the_shared_dict(cls):
    # built from the same values, so only the instances themselves are new:
    # a generated instance with a dict of its own would cost 64 bytes or more
    new, extra = GENERATED[cls]
    samples = kept_samples()[cls]
    assert all(type(x) is cls for x in samples)
    inputs = samples * (4096 // len(samples))

    def fields(x):
        return [getattr(x, f.name) for f in dataclasses.fields(x)]

    def generated(x):
        return new(*fields(x), *([getattr(x, extra)] if extra else []))

    def public(x):
        y = cls(*fields(x))
        # rebinding to the shared values frees __post_init__'s converted
        # copies and leaves the instance as __init__ laid it out
        for field, value in zip(dataclasses.fields(y), fields(x)):
            object.__setattr__(y, field.name, value)
        return y

    # a first traced run of each pays one-off allocations of about 35 bytes a result
    for build in (generated, public):
        retained(build, inputs)
    assert retained(generated, inputs) <= retained(public, inputs) + 8 * len(inputs)
    if extra:
        assert any(getattr(x, extra) is not None for x in samples)
