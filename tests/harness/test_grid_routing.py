"""Every harness entry point runs its points through ``run_grid``.

``SweepCache``, ``run_pair`` and the figures CLI build grid points and
hand them to :func:`repro.harness.parallel.run_grid` whatever the
options say, so ``RunOptions`` alone decides how they run: a
``--backend batch`` figure reaches the batch backend, a failing sweep
point runs exactly once, and the store keys they commit under stay
those of the points they have always built.
"""
import re

import pytest

import repro.harness.batch as harness_batch
import repro.harness.parallel as par
from repro.harness.cli import main
from repro.harness.experiment import RunRow, run_pair
from repro.harness.figures import SweepCache
from repro.harness.options import RunOptions
from repro.store import ResultStore
from repro.verify.watchdog import DeadlockError

#: store keys these points committed under before they shared one
#: grid path; if these move, existing stores stop serving these points
SWEEP_CACHE_KEY = "959164a0f187cbb117cb72a7e133c662"   # histogram d=4
RUN_PAIR_KEYS = {
    0: "07f6c6c671d85937c3f35ea7f7a2930c",
    4: "dc8211609cecc7df535fd71734b88d5c",
}

_PAIR = dict(d_distance=4, num_threads=2, seed=7, n_points=256,
             max_value=3)


@pytest.fixture
def batch_calls(monkeypatch):
    """Point counts of every ``batch_fan_out`` call, in call order."""
    calls = []
    real = harness_batch.batch_fan_out

    def spy(points, **kwargs):
        points = list(points)
        calls.append(len(points))
        return real(points, **kwargs)
    monkeypatch.setattr(harness_batch, "batch_fan_out", spy)
    return calls


def _fig10_table(out: str) -> str:
    match = re.search(r"^Fig\. 10.*?(?=^\[fig10:)", out, re.S | re.M)
    assert match, out
    return match.group(0)


class TestBackendReachesBatch:
    def test_cli_sweep_figure_runs_batch(self, capsys, batch_calls):
        argv = ["fig10", "--threads", "4", "--scale", "0.1"]
        assert main(argv + ["--backend", "batch"]) == 0
        batch = capsys.readouterr().out
        # all 18 points of the Figs. 7-11 sweep go out as one grid
        assert batch_calls == [18]
        assert main(argv + ["--backend", "serial"]) == 0
        serial = capsys.readouterr().out
        assert batch_calls == [18]
        assert _fig10_table(batch) == _fig10_table(serial)

    def test_run_pair_batch_matches_serial(self, batch_calls):
        batch = run_pair("bad_dot_product",
                         options=RunOptions(backend="batch"), **_PAIR)
        assert batch_calls == [2]
        assert batch == run_pair("bad_dot_product", **_PAIR)


class TestSweepCacheFailures:
    def test_failed_point_runs_once(self, monkeypatch):
        calls = []
        real = par.run_workload

        def wedge_d4(name, **kwargs):
            calls.append(kwargs["d_distance"])
            if kwargs["d_distance"] == 4:
                raise DeadlockError("wedged")
            return real(name, **kwargs)
        monkeypatch.setattr(par, "run_workload", wedge_d4)
        cache = SweepCache(num_threads=2, scale=0.05, seed=11)
        cache.prefetch(apps=["histogram"], ds=(0, 4))
        for _ in range(2):
            with pytest.raises(RuntimeError, match="DeadlockError"):
                cache.row("histogram", 4)
        assert sorted(calls) == [0, 4]
        assert list(cache.rows()) == [("histogram", 0)]

    def test_unprefetched_failed_point_runs_once(self, monkeypatch):
        calls = []

        def wedge(name, **kwargs):
            calls.append(name)
            raise DeadlockError("wedged")
        monkeypatch.setattr(par, "run_workload", wedge)
        cache = SweepCache(num_threads=2, scale=0.05, seed=11)
        for _ in range(2):
            with pytest.raises(RuntimeError, match="wedged"):
                cache.row("histogram", 4)
        assert calls == ["histogram"]
        assert cache.rows() == {}


class TestStoreKeysPinned:
    def test_sweep_cache_point_key(self, tmp_path):
        db = str(tmp_path / "sweep.db")
        cache = SweepCache(num_threads=2, scale=0.05, seed=11,
                           options=RunOptions(store=db))
        row = cache.row("histogram", 4)
        with ResultStore(db) as store:
            assert len(store) == 1
            assert store.get(SWEEP_CACHE_KEY) == row

    def test_run_pair_leg_keys(self, tmp_path):
        db = str(tmp_path / "pair.db")
        base, gw = run_pair("bad_dot_product",
                            options=RunOptions(store=db), **_PAIR)
        with ResultStore(db) as store:
            assert len(store) == 2
            assert store.get(RUN_PAIR_KEYS[0]) == base
            assert store.get(RUN_PAIR_KEYS[4]) == gw
        assert isinstance(base, RunRow) and isinstance(gw, RunRow)
