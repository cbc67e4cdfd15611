"""The design-space explorer: config, sweeps, fronts, determinism."""

from __future__ import annotations

import json
import math

import pytest

from repro.chips.package import ChipPackage, scale_package
from repro.dfg.builders import generate_dfg
from repro.errors import PartitioningError, SearchCancelled
from repro.auto.partitioner import session_like_factory
from repro.explore import ExploreConfig, explore
from repro.experiments import experiment1_session
from repro.io.project import load_project
from repro.search.pareto import dominates


@pytest.fixture(scope="module")
def graph():
    return generate_dfg("layered", 60, seed=0)


@pytest.fixture(scope="module")
def swept(graph):
    return explore(
        graph, ExploreConfig(chip_counts=(1, 2, 3))
    )


class TestConfigValidation:
    def test_defaults_validate(self):
        ExploreConfig().validate()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"chip_counts": ()},
            {"chip_counts": (0,)},
            {"chip_counts": (1.5,)},
            {"package_scales": ()},
            {"package_scales": (0.0,)},
            {"package_scales": (-1.0,)},
            {"package_scales": (1.0, math.inf)},
            {"objectives": ()},
            {"objectives": ("cost", "speed")},
            {"objectives": ("cost", "cost")},
            {"seeding": "magic"},
            {"heuristic": "genetic"},
        ],
    )
    def test_bad_configs_rejected(self, overrides):
        with pytest.raises(PartitioningError):
            ExploreConfig(**overrides).validate()

    def test_k_beyond_op_count_rejected(self):
        with pytest.raises(PartitioningError):
            ExploreConfig(chip_counts=(999,)).validate(op_count=60)

    def test_op_count_unknown_allows_any_k(self):
        ExploreConfig(chip_counts=(999,)).validate()


class TestScalePackage:
    def test_identity_scale_returns_same_object(self):
        package = ChipPackage("p", 100.0, 200.0, 64, 25.0, 297.6)
        assert scale_package(package, 1.0) is package

    def test_area_scales_aspect_preserved(self):
        package = ChipPackage("p", 100.0, 200.0, 64, 25.0, 297.6)
        scaled = scale_package(package, 2.0)
        assert scaled.project_area_mil2 == pytest.approx(
            2.0 * package.project_area_mil2
        )
        assert scaled.width_mil / scaled.height_mil == pytest.approx(
            package.width_mil / package.height_mil
        )
        assert scaled.pin_count == package.pin_count
        assert scaled.name == "px2"


class TestSweep:
    def test_census_covers_every_candidate(self, swept):
        assert swept.evaluated == 3
        assert len(swept.candidates) == 3
        assert (
            swept.feasible + swept.infeasible + swept.skipped
            == swept.evaluated
        )

    def test_front_is_non_dominated(self, swept):
        objectives = swept.config.objectives
        vectors = [p.vector(objectives) for p in swept.front]
        for a in vectors:
            assert not any(
                dominates(b, a) for b in vectors if b is not a
            )

    def test_front_spans_chip_counts(self, swept):
        assert len(swept.front) >= 2
        assert len({p.chips for p in swept.front}) >= 2

    def test_front_points_reload_through_check(self, swept):
        for point in swept.front:
            session = load_project(point.project)
            result = session.check()
            assert result.feasible
            best = result.best()
            assert best.ii_main == point.ii_main
            assert best.delay_main == point.delay_main

    def test_order_invariance(self, graph, swept):
        reversed_sweep = explore(
            graph, ExploreConfig(chip_counts=(3, 2, 1))
        )
        objectives = swept.config.objectives
        assert [p.to_dict(objectives) for p in reversed_sweep.front] \
            == [p.to_dict(objectives) for p in swept.front]

    def test_serial_and_engine_byte_identical(self, graph, pool_always):
        from repro.engine import EvaluationEngine

        config = ExploreConfig(
            chip_counts=(2, 3), heuristic="enumeration"
        )
        serial = explore(graph, config)
        engine = EvaluationEngine(workers=2)
        sharded = explore(graph, config, engine=engine)
        assert (
            json.dumps(serial.to_dict(), sort_keys=True).encode()
            == json.dumps(sharded.to_dict(), sort_keys=True).encode()
        )

    def test_impossible_band_is_skipped_not_fatal(self):
        # A wide two-level graph cannot be horizontally cut into 4
        # bands even though it has plenty of operations; the candidate
        # must be skipped with a reason, not kill the sweep.
        from repro.dfg.builders import GraphBuilder

        builder = GraphBuilder("wide", default_width=16)
        sums = [
            builder.add(
                builder.input(f"a{i}"), builder.input(f"b{i}"),
                name=f"s{i}",
            )
            for i in range(6)
        ]
        builder.output(sums[0])
        wide = builder.build()
        result = explore(wide, ExploreConfig(chip_counts=(1, 4)))
        assert result.skipped == 1
        skipped = [
            row for row in result.candidates
            if row["status"] == "skipped"
        ]
        assert len(skipped) == 1 and "reason" in skipped[0]

    def test_cancel_raises_search_cancelled(self, graph):
        with pytest.raises(SearchCancelled):
            explore(
                graph,
                ExploreConfig(chip_counts=(1, 2)),
                cancel=lambda: True,
            )

    def test_progress_reports_each_candidate(self, graph):
        seen = []
        explore(
            graph,
            ExploreConfig(chip_counts=(1, 2)),
            progress=lambda done, total: seen.append((done, total)),
        )
        assert seen == [(1, 2), (2, 2)]

    def test_disk_cache_seeds_second_sweep(self, graph, tmp_path):
        from repro.cache import DiskPredictionCache

        cache = DiskPredictionCache(tmp_path)
        config = ExploreConfig(chip_counts=(1, 2))
        cold = explore(graph, config, disk_cache=cache)
        warm = explore(graph, config, disk_cache=cache)
        assert cold.cache_seeded == 0
        assert warm.cache_seeded >= 2
        cold_doc, warm_doc = cold.to_dict(), warm.to_dict()
        cold_doc.pop("cache_seeded")
        warm_doc.pop("cache_seeded")
        assert cold_doc == warm_doc

    def test_auto_seeding(self, graph):
        result = explore(
            graph,
            ExploreConfig(chip_counts=(2,), seeding="auto"),
        )
        assert result.feasible == 1
        assert len(result.front) == 1

    def test_to_dict_project_toggle(self, swept):
        with_projects = swept.to_dict(include_projects=True)
        without = swept.to_dict(include_projects=False)
        assert all("project" in p for p in with_projects["front"])
        assert all("project" not in p for p in without["front"])


class TestProjectFactory:
    def test_inherits_designer_inputs(self, graph):
        base = experiment1_session(
            package_number=2, partition_count=2
        )
        factory = session_like_factory(base)
        session = factory(graph, 3, 1.0)
        assert session.library is base.library
        assert session.criteria is base.criteria
        assert sorted(session.chips) == ["chip1", "chip2", "chip3"]
        # base has two package-2 chips; round-robin reuses them.
        assert (
            session.chips["chip1"].package.name
            == base.chips["chip1"].package.name
        )

    def test_default_scale_keeps_the_packages(self, graph):
        base = experiment1_session(
            package_number=2, partition_count=2
        )
        session = session_like_factory(base)(graph, 3)
        assert [chip.package for chip in session.chips.values()] == [
            base.chips["chip1"].package,
            base.chips["chip2"].package,
            base.chips["chip1"].package,
        ]
        assert session.chips["chip1"].package is base.chips["chip1"].package

    def test_scale_applied_to_reused_packages(self, graph):
        base = experiment1_session(
            package_number=2, partition_count=2
        )
        session = session_like_factory(base)(graph, 2, 4.0)
        assert session.chips["chip1"].package.project_area_mil2 \
            == pytest.approx(
                4.0
                * base.chips["chip1"].package.project_area_mil2
            )
