"""Crash-resume: the durable-sweep guarantees, end to end.

The headline regression (ISSUE 6 acceptance): SIGKILL a sweep mid-grid,
re-run it with resume on, and the committed points are served — not
recomputed — with results bit-identical to a cold serial run.  Plus the
failure-taxonomy contract: permanent failures commit once and are
served on resume; transient failures never commit, so a resume retries
them.
"""
import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

from repro.harness.experiment import RunRow
from repro.harness.parallel import GridFailure, GridPoint, run_grid
from repro.store import ResultStore, point_key
from repro.verify.watchdog import DeadlockError

_SRC = str(Path(__file__).resolve().parents[2] / "src")

_POINT_KW = dict(num_threads=4, scale=1.0, seed=12345, n_points=160,
                 max_value=7)


def _grid(d_values=(0, 2, 4, 8)):
    return [
        GridPoint("bad_dot_product", dict(d_distance=d, **_POINT_KW),
                  label=f"d={d}")
        for d in d_values
    ]


# ---------------------------------------------------------------------
# in-process resume semantics
# ---------------------------------------------------------------------
class TestResume:
    def test_resumed_grid_bit_identical_to_cold(self, tmp_path):
        points = _grid()
        cold = run_grid(points)
        with ResultStore(tmp_path / "s.db") as store:
            first = run_grid(points, store=store)
            resumed = run_grid(points, store=store)
            assert store.stats.hits == len(points)
        assert cold == first == resumed
        assert all(isinstance(r, RunRow) for r in resumed)

    def test_resume_recomputes_nothing(self, tmp_path, monkeypatch):
        import repro.harness.parallel as par
        points = _grid((0, 4))
        with ResultStore(tmp_path / "s.db") as store:
            run_grid(points, store=store)

            def boom(name, **kwargs):
                raise AssertionError("resume must not re-run points")
            monkeypatch.setattr(par, "run_workload", boom)
            resumed = run_grid(points, store=store)
        assert all(isinstance(r, RunRow) for r in resumed)

    def test_no_resume_recomputes_and_overwrites(self, tmp_path,
                                                 monkeypatch):
        import repro.harness.parallel as par
        points = _grid((0, 4))
        calls = []
        real = par.run_workload

        def counting(name, **kwargs):
            calls.append(name)
            return real(name, **kwargs)
        monkeypatch.setattr(par, "run_workload", counting)
        from repro.harness.options import RunOptions
        with ResultStore(tmp_path / "s.db") as store:
            run_grid(points, store=store)
            run_grid(points, store=store,
                     options=RunOptions(resume=False))
        assert len(calls) == 2 * len(points)

    def test_store_opened_from_options_path(self, tmp_path):
        from repro.harness.options import RunOptions
        db = tmp_path / "s.db"
        opts = RunOptions(store=str(db))
        points = _grid((0, 4))
        a = run_grid(points, options=opts)
        b = run_grid(points, options=opts)
        assert a == b
        with ResultStore(db) as store:
            assert len(store) == len(points)

    def test_partial_store_runs_only_the_gap(self, tmp_path, monkeypatch):
        import repro.harness.parallel as par
        points = _grid((0, 2, 4))
        calls = []
        real = par.run_workload

        def counting(name, **kwargs):
            calls.append(kwargs["d_distance"])
            return real(name, **kwargs)
        monkeypatch.setattr(par, "run_workload", counting)
        with ResultStore(tmp_path / "s.db") as store:
            run_grid(points[:1], store=store)
            out = run_grid(points, store=store)
        assert calls == [0, 2, 4]  # d=0 once cold, then only the gap
        assert all(isinstance(r, RunRow) for r in out)


# ---------------------------------------------------------------------
# failure taxonomy x durability
# ---------------------------------------------------------------------
class TestFailureCommits:
    def test_permanent_failure_committed_once_and_served(self, tmp_path,
                                                         monkeypatch):
        import repro.harness.parallel as par
        calls = []

        def wedge(name, **kwargs):
            calls.append(name)
            raise DeadlockError("genuinely wedged config")
        monkeypatch.setattr(par, "run_workload", wedge)
        points = [GridPoint("bad_dot_product", dict(d_distance=4, seed=1),
                            label="wedged")]
        with ResultStore(tmp_path / "s.db") as store:
            [first] = run_grid(points, store=store)
            [second] = run_grid(points, store=store)
        assert isinstance(first, GridFailure) and first.permanent
        assert isinstance(second, GridFailure) and second.permanent
        assert second.error_type == "DeadlockError"
        assert len(calls) == 1  # the failure was served, not re-run

    def test_transient_failure_not_committed(self, tmp_path, monkeypatch):
        import repro.harness.parallel as par
        calls = []

        def flaky(name, **kwargs):
            calls.append(name)
            raise OSError("worker hiccup")
        monkeypatch.setattr(par, "run_workload", flaky)
        points = [GridPoint("bad_dot_product", dict(d_distance=4, seed=1))]
        with ResultStore(tmp_path / "s.db") as store:
            [first] = run_grid(points, store=store)
            [second] = run_grid(points, store=store)
            assert len(store) == 0  # nothing durable: resume retries
        assert not first.permanent and not second.permanent
        assert len(calls) == 2

    def test_served_failure_reindexed_to_callers_grid(self, tmp_path,
                                                      monkeypatch):
        import repro.harness.parallel as par
        real = par.run_workload

        def dispatch(name, **kwargs):
            if kwargs["d_distance"] == 4:
                raise DeadlockError("wedged")
            return real(name, **kwargs)
        monkeypatch.setattr(par, "run_workload", dispatch)
        with ResultStore(tmp_path / "s.db") as store:
            run_grid(_grid((4,)), store=store)   # commit at index 0
            out = run_grid(_grid((0, 2, 4)), store=store)
        assert isinstance(out[2], GridFailure)
        assert out[2].index == 2  # reindexed to this grid, not the old one


# ---------------------------------------------------------------------
# the SIGKILL regression (satellite 3)
# ---------------------------------------------------------------------
_KILL_SCRIPT = textwrap.dedent("""
    import os, signal, sys
    import repro.harness.parallel as par
    from repro.harness.parallel import GridPoint, run_grid
    from repro.store import ResultStore

    db = sys.argv[1]
    real = par.run_workload
    state = {"n": 0}

    def kill_on_third(name, **kwargs):
        state["n"] += 1
        if state["n"] == 3:
            os.kill(os.getpid(), signal.SIGKILL)   # hard crash, no cleanup
        return real(name, **kwargs)

    par.run_workload = kill_on_third
    points = [
        GridPoint("bad_dot_product",
                  dict(d_distance=d, num_threads=4, scale=1.0, seed=12345,
                       n_points=160, max_value=7),
                  label=f"d={d}")
        for d in (0, 2, 4, 8)
    ]
    run_grid(points, store=ResultStore(db))
    raise SystemExit("unreachable: the kill must have fired")
""")


class TestKillAndResume:
    def test_sigkilled_sweep_resumes_bit_identical(self, tmp_path):
        db = tmp_path / "sweep.db"
        env = dict(os.environ, PYTHONPATH=_SRC)
        proc = subprocess.run(
            [sys.executable, "-c", _KILL_SCRIPT, str(db)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr

        # the two points committed before the kill survived it
        with ResultStore(db) as store:
            assert len(store) == 2

        # resume: committed points are served, only the gap is re-run
        points = _grid()
        import repro.harness.parallel as par
        calls = []
        real = par.run_workload

        def counting(name, **kwargs):
            calls.append(kwargs["d_distance"])
            return real(name, **kwargs)
        par.run_workload = counting
        try:
            with ResultStore(db) as store:
                resumed = run_grid(points, store=store)
                assert store.stats.hits == 2
        finally:
            par.run_workload = real
        assert sorted(calls) == [4, 8]  # d=0, d=2 committed pre-kill

        # ... and the merged rows are bit-identical to a cold serial run
        cold = run_grid(points)
        assert resumed == cold
        assert all(isinstance(r, RunRow) for r in resumed)

    def test_keys_match_across_processes(self, tmp_path):
        # the subprocess committed under the same content address this
        # process computes: the key is process-, platform- and
        # hash-seed-independent
        db = tmp_path / "sweep.db"
        env = dict(os.environ, PYTHONPATH=_SRC, PYTHONHASHSEED="99")
        proc = subprocess.run(
            [sys.executable, "-c", _KILL_SCRIPT, str(db)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr
        with ResultStore(db) as store:
            for point in _grid((0, 2)):
                assert point_key(point.workload, point.kwargs) in store
