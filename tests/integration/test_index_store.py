"""Index persistence: processors frozen into an arena and attached back
answer identically, with the same structures and simulated I/O."""

import numpy as np
import pytest

from repro import GPSSNQuery, GPSSNQueryProcessor, uni_dataset
from repro.config import DEFAULT_DISTANCE_ENGINE
from repro.core.metrics import InterestMetric
from repro.exceptions import IndexStateError, SnapshotFormatError
from repro.io.snapshot import FrozenSnapshot, freeze


@pytest.fixture(scope="module")
def setup(tmp_path_factory):
    network = uni_dataset(
        num_road_vertices=90, num_pois=30, num_users=60, seed=27
    )
    processor = GPSSNQueryProcessor(
        network, num_road_pivots=3, num_social_pivots=3, seed=27
    )
    path = tmp_path_factory.mktemp("store") / "indexes.gpsnap"
    freeze(network, path, processor=processor)
    return network, processor, path


def _attach(path):
    return FrozenSnapshot.open(path).attach()


class TestRoundTrip:
    def test_answers_identical(self, setup):
        network, original, path = setup
        attached, revived = _attach(path)
        rng = np.random.default_rng(0)
        for _ in range(5):
            uq = int(rng.integers(network.social.num_users))
            query = GPSSNQuery(
                query_user=uq, tau=3, gamma=0.3, theta=0.3, radius=2.0
            )
            a, sa = original.answer(query)
            b, sb = revived.answer(query)
            assert a.found == b.found
            assert a.users == b.users
            assert a.pois == b.pois
            assert repr(a.max_distance) == repr(b.max_distance)
            # Identical structures: identical simulated I/O.
            assert sa.page_accesses == sb.page_accesses

    def test_structure_matches(self, setup):
        _network, original, path = setup
        _attached, revived = _attach(path)
        assert revived.road_index.height == original.road_index.height
        assert revived.road_index.num_pages == original.road_index.num_pages
        assert revived.social_index.num_pages == original.social_index.num_pages
        assert revived.road_pivots.pivots == original.road_pivots.pivots
        assert revived.social_pivots.pivots == original.social_pivots.pivots
        assert revived._build_args == original._build_args

    def test_augmented_data_survives(self, setup):
        network, original, path = setup
        _attached, revived = _attach(path)
        for pid in network.poi_ids():
            a = original.road_index.augmented(pid)
            b = revived.road_index.augmented(pid)
            assert a.sup_keywords == b.sup_keywords
            assert a.sub_keywords == b.sub_keywords
            assert a.pivot_dists == pytest.approx(b.pivot_dists)

    def test_topk_and_metrics_work_on_revived(self, setup):
        _network, original, path = setup
        _attached, revived = _attach(path)
        query = GPSSNQuery(
            query_user=0, tau=2, gamma=0.5, theta=0.2,
            metric=InterestMetric.COSINE,
        )
        answers, _ = revived.answer_topk(query, 3)
        expected, _ = original.answer_topk(query, 3)
        assert [(a.users, a.pois) for a in answers] == [
            (a.users, a.pois) for a in expected
        ]


class TestDistanceEnginePersistence:
    def test_ch_preprocessing_survives_roundtrip(self, tmp_path, monkeypatch):
        from repro.roadnet.ch import ContractionHierarchy
        from repro.roadnet.engines import CHEngine

        network = uni_dataset(
            num_road_vertices=90, num_pois=30, num_users=60, seed=27
        )
        processor = GPSSNQueryProcessor(
            network, num_road_pivots=3, num_social_pivots=3, seed=27,
            distance_engine="ch",
        )
        path = tmp_path / "ch-store.gpsnap"
        freeze(network, path, processor=processor)
        built = network.distances.engine
        assert isinstance(built, CHEngine)
        shortcuts = built.hierarchy().shortcuts_added

        # Attach the way a fresh process would: the hierarchy must
        # revive from the arena, never re-contract.
        def no_rebuild(*args, **kwargs):
            raise AssertionError("hierarchy was rebuilt")

        monkeypatch.setattr(ContractionHierarchy, "build", no_rebuild)
        attached, revived = _attach(path)
        engine = attached.distances.engine
        assert isinstance(engine, CHEngine)
        assert engine._ch is not None  # adopted, no lazy build pending
        assert engine._ch.shortcuts_added == shortcuts

        query = GPSSNQuery(
            query_user=3, tau=3, gamma=0.3, theta=0.3, radius=2.0
        )
        a, _ = processor.answer(query)
        b, _ = revived.answer(query)
        assert a.found == b.found
        assert a.users == b.users and a.pois == b.pois
        assert repr(a.max_distance) == repr(b.max_distance)

    def test_default_store_keeps_default_engine(self, setup):
        _network, _processor, path = setup
        attached, revived = _attach(path)
        assert attached.distances.engine.name == DEFAULT_DISTANCE_ENGINE
        assert revived.network.distances.engine.name == DEFAULT_DISTANCE_ENGINE


class TestValidation:
    def test_mutated_network_rejected(self, setup):
        from repro import NetworkPosition, POI

        _network, _processor, path = setup
        # Indexes recorded against another network version never attach.
        frozen = FrozenSnapshot.open(path)
        frozen.meta["index"]["network_version"] += 1
        with pytest.raises(IndexStateError, match="network version"):
            frozen.attach()

        # And an attached processor refuses to serve once its network
        # moves on.
        attached, revived = _attach(path)
        u, v, _length = next(iter(attached.road.edges()))
        position = NetworkPosition(u, v, 0.0)
        attached.add_poi(POI(
            9000, attached.road.position_coords(position), position,
            frozenset({0}),
        ))
        with pytest.raises(IndexStateError, match="rebuild"):
            revived.answer(GPSSNQuery(query_user=0, tau=2))

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "other"}')
        with pytest.raises(SnapshotFormatError):
            FrozenSnapshot.open(path)
