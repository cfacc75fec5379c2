"""Tests for the sweep helpers."""
import math

import pytest

from repro.harness.experiment import RunRow
from repro.harness.parallel import GridFailure
from repro.harness.sweeps import (
    SweepResult, sweep_d_distance, sweep_gi_timeout, sweep_protocols,
    sweep_threads, sweep_topology_scale,
)
from repro.verify.watchdog import DeadlockError


class TestSweepResult:
    def test_length_validation(self):
        with pytest.raises(ValueError):
            SweepResult("x", (1, 2), ())

    def test_series_extracts_columns(self):
        res = sweep_d_distance("bad_dot_product", d_values=(0, 8),
                               num_threads=4, scale=1.0, n_points=128,
                               max_value=7)
        cycles = res.series("cycles")
        assert len(cycles) == 2 and all(c > 0 for c in cycles)
        assert res.series("error_pct")[0] == 0.0

    def test_series_and_failures_with_failed_row(self):
        ok = sweep_d_distance("bad_dot_product", d_values=(4,),
                              num_threads=4, scale=1.0, n_points=128,
                              max_value=7).rows[0]
        bad = GridFailure(index=1, error_type="DeadlockError",
                          message="wedged", label="d_distance=8")
        res = SweepResult("d_distance", (4, 8), (ok, bad))
        series = res.series("cycles")
        assert series[0] == float(ok.cycles)
        assert math.isnan(series[1])
        assert res.failures() == [(8, bad)]
        assert res.ok_rows() == [ok]
        assert "FAILED" in res.render() and "DeadlockError" in res.render()

    def test_speedups_require_ok_first_row(self):
        bad = GridFailure(index=0, error_type="DeadlockError",
                          message="wedged")
        res = SweepResult("threads", (1,), (bad,))
        with pytest.raises(ValueError, match="first sweep point"):
            res.speedups_vs_first()


class TestCrashIsolation:
    def test_deadlocked_point_reported_siblings_complete(self, monkeypatch):
        """A grid point that deadlocks becomes a failed row; the other
        sweep points still produce real RunRows."""
        import repro.harness.parallel as par
        real = par.run_workload

        def wedge_d8(name, **kwargs):
            if kwargs.get("d_distance") == 8:
                raise DeadlockError("no retirement for 2 intervals")
            return real(name, **kwargs)
        monkeypatch.setattr(par, "run_workload", wedge_d8)

        res = sweep_d_distance("bad_dot_product", d_values=(0, 8, 4),
                               num_threads=4, scale=1.0, n_points=128,
                               max_value=7)
        assert isinstance(res.rows[0], RunRow)
        assert isinstance(res.rows[2], RunRow)
        failure = res.rows[1]
        assert isinstance(failure, GridFailure)
        assert failure.error_type == "DeadlockError"
        assert res.failures()[0][0] == 8
        # aggregation helpers stay usable around the hole
        assert not math.isnan(res.series("cycles")[0])
        assert math.isnan(res.series("cycles")[1])
        assert res.speedups_vs_first()[2] > 0


class TestDDistanceSweep:
    def test_curve_shapes(self):
        res = sweep_d_distance(
            "bad_dot_product", d_values=(0, 4, 8), num_threads=4,
            scale=1.0, n_points=256, max_value=7,
        )
        assert res.parameter == "d_distance"
        assert len(res.rows) == 3
        assert res.rows[0].error_pct == 0.0     # d=0 exact
        # utilization monotone
        gs = res.series("gs_serviced_pct")
        assert gs[2] >= gs[1] >= gs[0]
        assert "sweep over d_distance" in res.render()

    def test_speedups_vs_first(self):
        res = sweep_d_distance("bad_dot_product", d_values=(0, 8),
                               num_threads=4, scale=1.0, n_points=256,
                               max_value=3)
        sp = res.speedups_vs_first()
        assert sp[0] == pytest.approx(1.0)
        assert sp[1] >= 0.95  # never materially slower


class TestThreadSweep:
    def test_privatized_scales(self):
        res = sweep_threads("private_dot_product",
                            thread_counts=(1, 2, 4), scale=1.0,
                            n_points=512)
        sp = res.speedups_vs_first()
        assert sp[0] == pytest.approx(1.0)
        assert sp[-1] > 2.0

    def test_rows_are_runrows(self):
        res = sweep_threads("private_dot_product", thread_counts=(2,),
                            scale=1.0, n_points=128)
        assert isinstance(res.rows[0], RunRow)


class TestTimeoutSweep:
    def test_timeout_sweep_runs(self):
        res = sweep_gi_timeout("bad_dot_product", timeouts=(128, 1024),
                               num_threads=4, scale=1.0, n_points=256,
                               max_value=3)
        assert res.values == (128, 1024)
        for row in res.rows:
            assert row.cycles > 0


class TestStrayKeywords:
    """A keyword neither ``run_workload`` nor the workload's constructor
    accepts raises at the call instead of failing every point."""

    def test_unknown_keyword_raises_and_commits_nothing(self, tmp_path,
                                                        monkeypatch):
        import repro.harness.parallel as par
        from repro.harness.options import RunOptions
        from repro.store.result_store import ResultStore

        ran = []
        real = par.run_workload
        monkeypatch.setattr(par, "run_workload",
                            lambda *a, **kw: ran.append(kw) or real(*a, **kw))
        db = str(tmp_path / "sweep.db")
        with pytest.raises(TypeError, match="jobs"):
            sweep_d_distance("bad_dot_product", (0, 4), num_threads=2,
                             scale=0.05, options=RunOptions(store=db),
                             jobs=2)
        assert ran == []
        with ResultStore(db) as store:
            assert len(store) == 0

    @pytest.mark.parametrize("sweep", [sweep_threads, sweep_gi_timeout,
                                       sweep_protocols,
                                       sweep_topology_scale])
    def test_every_sweep_checks(self, sweep):
        with pytest.raises(TypeError, match="no_such_knob"):
            sweep("bad_dot_product", no_such_knob=1)

    def test_constructor_keywords_pass(self):
        # ``reload_every`` is StoreThroughDotProduct's own keyword and
        # ``n_points`` reaches its base class through ``**kwargs``
        res = sweep_d_distance("store_through_dot_product", (0,),
                               num_threads=2, scale=0.05, n_points=64,
                               reload_every=8)
        assert isinstance(res.rows[0], RunRow)
