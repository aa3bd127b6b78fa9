"""Tests for the RNG helpers and the exception hierarchy."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import (
    ConfigurationError,
    ConvergenceError,
    InfeasibleError,
    ReproError,
    ScheduleValidationError,
    SimulationError,
)
from repro.rng import derive_seed, ensure_rng, spawn


class TestEnsureRng:
    def test_none_gives_fresh_generator(self):
        gen = ensure_rng(None)
        assert isinstance(gen, np.random.Generator)

    def test_int_seed_is_deterministic(self):
        a = ensure_rng(42).integers(0, 1_000_000, size=5)
        b = ensure_rng(42).integers(0, 1_000_000, size=5)
        assert (a == b).all()

    def test_generator_passes_through(self):
        gen = np.random.default_rng(0)
        assert ensure_rng(gen) is gen


class TestSpawn:
    def test_children_are_independent_and_deterministic(self):
        kids_a = spawn(ensure_rng(7), 3)
        kids_b = spawn(ensure_rng(7), 3)
        assert len(kids_a) == 3
        for ka, kb in zip(kids_a, kids_b):
            assert (ka.integers(0, 10**6, 4) == kb.integers(0, 10**6, 4)).all()

    def test_children_differ_from_each_other(self):
        kids = spawn(ensure_rng(7), 2)
        assert (kids[0].integers(0, 10**6, 8) != kids[1].integers(0, 10**6, 8)).any()

    def test_zero_children(self):
        assert spawn(ensure_rng(0), 0) == []

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            spawn(ensure_rng(0), -1)


class TestDeriveSeed:
    def test_integer_paths_unchanged(self):
        # The historical integer form must keep its exact values — every
        # recorded experiment seed depends on it.
        ss = np.random.SeedSequence(42, spawn_key=(3, 7))
        assert derive_seed(42, 3, 7) == int(ss.generate_state(1, dtype=np.uint32)[0])

    def test_string_components_are_deterministic(self):
        assert derive_seed(1, "shard", 0) == derive_seed(1, "shard", 0)
        assert derive_seed(1, "cancel", "r000001") == derive_seed(1, "cancel", "r000001")

    def test_string_components_separate_namespaces(self):
        seeds = {
            derive_seed(5, "outage", "c0"),
            derive_seed(5, "cancel", "c0"),
            derive_seed(5, "shard", 0),
            derive_seed(5, "outage", "c1"),
        }
        assert len(seeds) == 4

    def test_path_order_matters(self):
        assert derive_seed(9, "a", "b") != derive_seed(9, "b", "a")

    def test_value_independent_of_sibling_derivations(self):
        # Pure function of (root, path): deriving other children first
        # never shifts a seed — the property keyed fault streams rest on.
        before = derive_seed(11, "request", 4)
        for k in range(20):
            derive_seed(11, "request", k)
        assert derive_seed(11, "request", 4) == before


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            ConfigurationError,
            InfeasibleError,
            ScheduleValidationError,
            ConvergenceError,
            SimulationError,
        ],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)

    def test_configuration_error_is_value_error(self):
        # Callers using plain `except ValueError` still catch config bugs.
        assert issubclass(ConfigurationError, ValueError)

    def test_convergence_error_carries_iterations(self):
        e = ConvergenceError("stalled", iterations=17)
        assert e.iterations == 17
        assert "stalled" in str(e)

    def test_one_except_clause_catches_everything(self):
        for exc in (ConfigurationError("x"), SimulationError("y"), InfeasibleError("z")):
            try:
                raise exc
            except ReproError:
                pass


class TestSweepRuntime:
    def test_runtime_sweep_shape(self, monkeypatch):
        from repro.experiments import sweep_runtime
        from repro.experiments.exec import kinds
        from repro.workloads import SMALL_SCALE_SPEC

        # A fake clock that advances a fixed, exactly representable step per
        # reading: every timed solver call then spans exactly one step, so
        # the series is deterministic instead of host-load noise.
        step = 0.25
        ticks = iter(range(10_000))
        monkeypatch.setattr(kinds, "perf_timer", lambda: step * next(ticks))

        res = sweep_runtime(
            "rt", "runtimes", SMALL_SCALE_SPEC, "n_devices", [4, 6], trials=1, seed=0
        )
        assert set(res.series) == {"NCA", "CCSA", "CCSGA"}
        assert all(len(ys) == 2 for ys in res.series.values())
        assert all(ys == [step, step] for ys in res.series.values())
