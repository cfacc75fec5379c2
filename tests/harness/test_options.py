"""RunOptions: validation, derived configs, and the surfaces taking it."""
import pickle

import pytest

from repro.harness import RunOptions
from repro.harness.figures import SweepCache


class TestRunOptions:
    def test_defaults_are_off(self):
        opts = RunOptions()
        assert opts.check_invariants is True
        assert opts.fault_rate == 0.0
        assert opts.jobs == 1
        assert not opts.tracing

    def test_validation(self):
        with pytest.raises(ValueError):
            RunOptions(fault_rate=-1)
        with pytest.raises(ValueError):
            RunOptions(fault_policy="explode")
        with pytest.raises(ValueError):
            RunOptions(jobs=0)
        with pytest.raises(ValueError):
            RunOptions(timeline_interval=-1)
        with pytest.raises(ValueError):
            RunOptions(flight_recorder=-1)

    def test_tracing_property(self):
        assert RunOptions(trace_events=True).tracing
        assert RunOptions(timeline_interval=100).tracing
        assert RunOptions(flight_recorder=8).tracing

    def test_replace_returns_new_frozen_value(self):
        a = RunOptions()
        b = a.replace(fault_rate=5.0, fault_policy="log")
        assert a.fault_rate == 0.0 and b.fault_rate == 5.0
        with pytest.raises(Exception):
            b.fault_rate = 9.0

    def test_picklable_and_hashable(self):
        opts = RunOptions(trace_events=True, jobs=4)
        assert pickle.loads(pickle.dumps(opts)) == opts
        assert hash(opts) == hash(RunOptions(trace_events=True, jobs=4))

    def test_derived_configs(self):
        opts = RunOptions(check_invariants=False, fault_rate=2.5,
                          fault_seed=7, fault_policy="recover",
                          trace_events=True, timeline_interval=512,
                          flight_recorder=32)
        v = opts.verify_config(watchdog_interval=1000)
        assert v.check_invariants is False
        assert v.watchdog_interval == 1000
        f = opts.fault_config()
        assert (f.cache_rate, f.seed, f.policy) == (2.5, 7, "recover")
        o = opts.obs_config()
        assert o.trace_events and o.timeline_interval == 512
        assert o.flight_depth == 32


    def test_topology_field_validated(self):
        assert RunOptions(topology="chiplet").topology == "chiplet"
        with pytest.raises(ValueError, match="unknown topology"):
            RunOptions(topology="torus")


class TestSurfaces:
    def test_sweep_cache_options_only_is_silent(self, recwarn):
        cache = SweepCache(num_threads=2, scale=0.05,
                           options=RunOptions(check_invariants=False))
        assert cache.options.check_invariants is False
        assert not [w for w in recwarn
                    if issubclass(w.category, DeprecationWarning)]

    def test_sweep_cache_fault_rate_forces_log_policy(self):
        cache = SweepCache(num_threads=2, scale=0.05,
                           options=RunOptions(fault_rate=3.0))
        # faulty sweeps force the log policy so rows complete
        assert cache.options.fault_policy == "log"
