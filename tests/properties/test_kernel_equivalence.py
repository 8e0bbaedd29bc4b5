"""S4 — the vector pair kernel is indistinguishable from the scalar oracle.

The product's vectorized pair evaluation (``PairKernel``) promises
*byte-identical* outcomes to the per-pair scalar reference kept in
:class:`tests.oracles.ScalarRefinementProcessor`, including the EXPLAIN
funnel: same answers, same ``candidate_pairs_examined``, same per-rule
prune counts (``pair.distance`` above all — it is the dominant rule the
vectorization reorganizes). Hypothesis sweeps query parameters over
random networks and all three distance engines; the uncapped sweep
also checks the objective against the exhaustive ``BaselineProcessor``.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro import GPSSNQueryProcessor, uni_dataset
from repro.core.baseline import BaselineProcessor
from repro.core.query import GPSSNQuery
from repro.obs import Recorder
from repro.obs.funnel import ExplainRecorder
from tests.oracles import ScalarRefinementProcessor, use_engine

#: "plain" is the dict Dijkstra test oracle (tests.oracles).
ENGINES = ("plain", "csr", "ch")

#: The two pair-evaluation paths under comparison.
KERNELS = {"scalar": ScalarRefinementProcessor, "vector": GPSSNQueryProcessor}

_NETWORKS = {}
_PROCESSORS = {}
_BASELINES = {}


def _network(engine):
    if engine not in _NETWORKS:
        net = uni_dataset(
            num_road_vertices=60, num_pois=20, num_users=40, seed=29
        )
        use_engine(net, engine)
        _NETWORKS[engine] = net
    return _NETWORKS[engine]


def _processor(engine, kernel):
    key = (engine, kernel)
    if key not in _PROCESSORS:
        _PROCESSORS[key] = KERNELS[kernel](
            _network(engine),
            num_road_pivots=3,
            num_social_pivots=3,
            seed=11,
            recorder=Recorder(explain=ExplainRecorder()),
        )
    return _PROCESSORS[key]


def _baseline(engine):
    if engine not in _BASELINES:
        _BASELINES[engine] = BaselineProcessor(_network(engine))
    return _BASELINES[engine]


def _funnel_snapshot(processor):
    ex = processor.recorder.explain
    snap = {}
    for funnel in ex.iter_phases():
        snap[funnel.name] = (
            funnel.visited,
            funnel.pruned,
            funnel.survived,
            {rule: stats.pruned for rule, stats in funnel.rules.items()},
        )
    return snap


def _run(processor, query, max_groups=None):
    processor.recorder.explain.clear()
    answer, stats = processor.answer(query, max_groups=max_groups)
    return answer, stats, _funnel_snapshot(processor)


def _assert_identical(query, scalar_run, vector_run):
    (a_s, st_s, f_s) = scalar_run
    (a_v, st_v, f_v) = vector_run
    assert a_v.found == a_s.found, query
    assert a_v.users == a_s.users, query
    assert a_v.pois == a_s.pois, query
    # Bitwise: repr distinguishes every distinct float.
    assert repr(a_v.max_distance) == repr(a_s.max_distance), query
    assert (
        st_v.pruning.candidate_pairs_examined
        == st_s.pruning.candidate_pairs_examined
    ), query
    assert f_v == f_s, query


@settings(max_examples=40, deadline=None)
@given(
    engine=st.sampled_from(ENGINES),
    uid=st.integers(0, 39),
    tau=st.integers(2, 4),
    gamma=st.sampled_from([0.0, 0.2, 0.4]),
    theta=st.sampled_from([0.2, 0.4, 0.6]),
    radius=st.sampled_from([1.0, 2.0, 3.0]),
)
def test_vector_matches_scalar(engine, uid, tau, gamma, theta, radius):
    query = GPSSNQuery(
        query_user=uid, tau=tau, gamma=gamma, theta=theta, radius=radius
    )
    scalar_run = _run(_processor(engine, "scalar"), query)
    vector_run = _run(_processor(engine, "vector"), query)
    _assert_identical(query, scalar_run, vector_run)
    # Uncapped refinement is exact: the objective must match the
    # exhaustive competitor's.
    expected, _ = _baseline(engine).answer(query)
    assert vector_run[0].found == expected.found, query
    assert repr(vector_run[0].max_distance) == repr(expected.max_distance), query


@settings(max_examples=15, deadline=None)
@given(
    uid=st.integers(0, 39),
    tau=st.integers(2, 3),
    max_groups=st.sampled_from([1, 5, 50]),
)
def test_vector_matches_scalar_capped_refinement(uid, tau, max_groups):
    """The group cap truncates the same enumeration prefix either way."""
    query = GPSSNQuery(
        query_user=uid, tau=tau, gamma=0.2, theta=0.4, radius=2.0
    )
    scalar_run = _run(_processor("plain", "scalar"), query, max_groups)
    vector_run = _run(_processor("plain", "vector"), query, max_groups)
    _assert_identical(query, scalar_run, vector_run)


@pytest.mark.parametrize("engine", ENGINES)
def test_topk_matches_scalar(engine):
    query = GPSSNQuery(query_user=0, tau=3, gamma=0.0, theta=0.3, radius=3.0)
    scalar = _processor(engine, "scalar")
    vector = _processor(engine, "vector")
    scalar.recorder.explain.clear()
    vector.recorder.explain.clear()
    answers_s, stats_s = scalar.answer_topk(query, k=5)
    snap_s = _funnel_snapshot(scalar)
    answers_v, stats_v = vector.answer_topk(query, k=5)
    snap_v = _funnel_snapshot(vector)
    assert len(answers_v) == len(answers_s)
    for a_s, a_v in zip(answers_s, answers_v):
        assert a_v.users == a_s.users
        assert a_v.pois == a_s.pois
        assert repr(a_v.max_distance) == repr(a_s.max_distance)
    assert (
        stats_v.pruning.candidate_pairs_examined
        == stats_s.pruning.candidate_pairs_examined
    )
    assert snap_v == snap_s


def test_tiny_network_exhaustive_grid(tiny_network):
    """Hand-checkable network, exhaustive parameter grid, bitwise parity."""
    scalar = ScalarRefinementProcessor(
        tiny_network, num_road_pivots=2, num_social_pivots=2, seed=3,
        recorder=Recorder(explain=ExplainRecorder()),
    )
    vector = GPSSNQueryProcessor(
        tiny_network, num_road_pivots=2, num_social_pivots=2, seed=3,
        recorder=Recorder(explain=ExplainRecorder()),
    )
    found_any = False
    for uid in (0, 1, 2, 4):
        for tau in (2, 3):
            for theta in (0.1, 0.3):
                query = GPSSNQuery(
                    query_user=uid, tau=tau, gamma=0.05,
                    theta=theta, radius=3.9,
                )
                scalar_run = _run(scalar, query)
                vector_run = _run(vector, query)
                _assert_identical(query, scalar_run, vector_run)
                found_any = found_any or scalar_run[0].found
    assert found_any  # the grid must exercise the non-trivial paths


def test_infeasible_query_parity(tiny_network):
    """Both kernels agree on the all-pruned path (no feasible pair)."""
    scalar = ScalarRefinementProcessor(
        tiny_network, seed=3, recorder=Recorder(explain=ExplainRecorder()),
    )
    vector = GPSSNQueryProcessor(
        tiny_network, seed=3, recorder=Recorder(explain=ExplainRecorder()),
    )
    query = GPSSNQuery(
        query_user=0, tau=2, gamma=0.05, theta=5.0, radius=2.0
    )
    scalar_run = _run(scalar, query)
    vector_run = _run(vector, query)
    _assert_identical(query, scalar_run, vector_run)
    assert not scalar_run[0].found
    assert math.isinf(scalar_run[0].max_distance)
