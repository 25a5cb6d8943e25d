"""Benchmark harness: phase wiring and reload accounting."""

from __future__ import annotations

import math

import pytest

from conftest import PROXY_SPEC
from kontext import BenchReport, run_bench
from kontext.bench import CHURN_CHANGES


@pytest.fixture(scope="module")
def report():
    return run_bench(PROXY_SPEC, "http_proxy", iterations=2000)


class TestRunBench:
    def test_identity_fields(self, report):
        assert report.iterations == 2000
        assert report.key == "http_proxy"

    def test_medians_positive_and_finite(self, report):
        for value in (
            report.baseline_ns,
            report.lookup_ns,
            report.steady_ns,
            report.churn_ns,
        ):
            assert math.isfinite(value)
            assert value > 0

    def test_overhead_ratio_finite(self, report):
        assert math.isfinite(report.overhead_ratio)
        assert report.overhead_ratio > 0

    def test_steady_state_never_reloads(self, report):
        assert report.steady_reloads == 0

    def test_churn_reloads_exactly_ten(self, report):
        assert report.reload_count == CHURN_CHANGES

    def test_as_dict_round_trips_fields(self, report):
        data = report.as_dict()
        assert data["reload_count"] == report.reload_count
        assert data["overhead_ratio"] == report.overhead_ratio
        assert set(data) == {
            "iterations",
            "key",
            "baseline_ns",
            "lookup_ns",
            "steady_ns",
            "churn_ns",
            "overhead_ratio",
            "steady_reloads",
            "reload_count",
        }


class TestArguments:
    def test_iterations_floor(self):
        with pytest.raises(ValueError):
            run_bench(PROXY_SPEC, "http_proxy", iterations=5)

    def test_explicit_state_path_reused(self, tmp_path):
        state = tmp_path / "bench-state.ks"
        report = run_bench(
            PROXY_SPEC, "http_proxy", iterations=100, state_path=str(state),
        )
        assert state.exists()
        assert report.reload_count == CHURN_CHANGES

    def test_ratio_uses_floor_of_one_ns(self):
        report = BenchReport(
            iterations=1, key="k",
            baseline_ns=0.0, lookup_ns=1.0, steady_ns=5.0, churn_ns=6.0,
            steady_reloads=0, reload_count=0,
        )
        assert report.overhead_ratio == 5.0
