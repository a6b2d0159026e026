"""The ``engine="auto"`` rule.

``"auto"`` names the first registered engine of
:data:`repro.engine.AUTO_ORDER`, resolved when the configuration is
built.  Pins that rule and everything wired to it:

* with no compiled engine registered it is the static default, and
  engines outside the order are never chosen;
* unregistered names in the order are skipped, and the order, not the
  order of registration, decides; ``"auto"`` itself cannot be
  registered;
* a built configuration keeps the engine it resolved to;
* it only picks engines of the default engine's semantics class;
* ``repro.solve``, ``PipelineConfig`` and ``Service.submit`` (also
  after the serve autoconf memo was filled, while ``config="auto"``
  alone keeps the default engine) all resolve it to the same engine —
  a stub registered as ``numba-deep`` here, since this suite must run
  without numba;
* results stay bit-identical on every in-process rail and share one
  cache entry across engines;
* the ``solve_auto`` perf scenario gates the rule, and the perf CLI has
  no ``calibrate`` command.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro import Grid3D, PipelineConfig, RelaxedSpec, solve
from repro.engine import (AUTO_ORDER, DEFAULT_ENGINE, NumpyEngine,
                          available_engines, check_engine, engine_semantics,
                          get_engine, register_engine, unregister_engine)
from repro.engine.registry import _REGISTRY
from repro.grid import random_field
from repro.kernels import reference_sweeps

#: The registered non-default candidate on every host (conftest's stub).
SECOND = "oracle"


class DeepStub(NumpyEngine):
    """``numba-deep`` by name, the numpy engine by behaviour."""

    name = "numba-deep"


class NumbaStub(NumpyEngine):
    name = "numba"


class OtherClassStub(NumpyEngine):
    """``numba-deep`` by name, but in a bit-semantics class of its own."""

    name = "numba-deep"
    semantics = "other-class"


class CountingDeepStub(DeepStub):
    """A ``numba-deep`` stub that counts the kernel calls it serves."""

    def __init__(self) -> None:
        super().__init__()
        self.calls = 0

    def apply(self, *args, **kw):
        self.calls += 1
        return super().apply(*args, **kw)

    def apply_spans(self, *args, **kw):
        self.calls += 1
        return super().apply_spans(*args, **kw)

    def apply_padded(self, *args, **kw):
        self.calls += 1
        return super().apply_padded(*args, **kw)


@pytest.fixture(autouse=True)
def _second_engine(oracle_engine):
    oracle_engine(SECOND)


@pytest.fixture
def no_compiled(monkeypatch):
    """The registry without the compiled engines, restored afterwards."""
    for name in ("numba", "numba-deep"):
        monkeypatch.delitem(_REGISTRY, name, raising=False)


@pytest.fixture
def deep_stub(no_compiled):
    register_engine(DeepStub())
    yield
    unregister_engine("numba-deep")


@pytest.fixture
def counting_deep(no_compiled):
    stub = register_engine(CountingDeepStub())
    yield stub
    unregister_engine("numba-deep")


def _cfg(**kw) -> PipelineConfig:
    base = dict(teams=1, threads_per_team=2, updates_per_thread=2,
                block_size=(4, 64, 64), sync=RelaxedSpec(1, 2))
    base.update(kw)
    return PipelineConfig(**base)


def _problem(shape=(12, 10, 11)):
    grid = Grid3D(shape)
    return grid, random_field(grid.shape, np.random.default_rng(7))


@pytest.fixture
def clean_auto_cache(monkeypatch):
    from repro.serve import autoconf

    monkeypatch.setattr(autoconf, "_resolved", {})


# ---------------------------------------------------------------------------
# The rule itself
# ---------------------------------------------------------------------------

class TestResolveAutoEngine:
    def test_empty_db_resolves_to_static_default(self, no_compiled):
        assert AUTO_ORDER[-1] == DEFAULT_ENGINE
        assert check_engine("auto") == DEFAULT_ENGINE

    def test_unknown_host_resolves_to_static_default(self, no_compiled):
        # A registered engine outside the order is never chosen.
        assert SECOND in available_engines()
        assert SECOND not in AUTO_ORDER
        assert _cfg(engine="auto").engine == DEFAULT_ENGINE

    def test_unregistered_candidates_are_skipped(self, no_compiled):
        register_engine(NumbaStub())
        try:
            # numba-deep leads the order but is not registered.
            assert check_engine("auto") == "numba"
        finally:
            unregister_engine("numba")

    def test_unknown_engine_error_lists_auto(self):
        with pytest.raises(ValueError, match="'auto'"):
            check_engine("no-such-engine")

    @pytest.mark.parametrize("registered, expected", [
        ((), "numpy"),
        (("numba",), "numba"),
        (("numba-deep",), "numba-deep"),
        (("numba", "numba-deep"), "numba-deep"),
        (("numba-deep", "numba"), "numba-deep"),
    ], ids=["none", "numba", "numba-deep", "both", "both-reversed"])
    def test_first_registered_name_of_the_order_wins(
            self, no_compiled, registered, expected):
        # The order decides, not the order of registration.
        stubs = {"numba": NumbaStub, "numba-deep": DeepStub}
        for name in registered:
            register_engine(stubs[name]())
        try:
            assert check_engine("auto") == expected
            assert get_engine("auto") is get_engine(expected)
            assert _cfg(engine="auto").engine == expected
        finally:
            for name in registered:
                unregister_engine(name)

    def test_auto_is_a_reserved_name(self):
        class Shadow(NumpyEngine):
            name = "auto"

        with pytest.raises(ValueError, match="AUTO_ORDER"):
            register_engine(Shadow())
        assert "auto" not in available_engines()

    def test_auto_skips_engines_of_another_semantics_class(
            self, no_compiled):
        register_engine(OtherClassStub())
        try:
            assert check_engine("auto") == DEFAULT_ENGINE
            assert engine_semantics("auto") == engine_semantics(
                DEFAULT_ENGINE)
        finally:
            unregister_engine("numba-deep")

    def test_semantics_follow_the_resolved_engine(self, deep_stub):
        assert engine_semantics("auto") == DeepStub.semantics
        assert get_engine("auto").name == "numba-deep"


# ---------------------------------------------------------------------------
# Resolution happens once, when the configuration is built
# ---------------------------------------------------------------------------

class TestEagerResolution:
    def test_replace_resolves_auto(self, deep_stub):
        cfg = replace(_cfg(), engine="auto")
        assert cfg.engine == "numba-deep"

    def test_auto_config_equals_its_resolution(self, deep_stub):
        auto, concrete = _cfg(engine="auto"), _cfg(engine="numba-deep")
        assert auto == concrete and hash(auto) == hash(concrete)

    def test_a_built_config_keeps_its_engine(self, deep_stub):
        cfg = _cfg(engine="auto")
        unregister_engine("numba-deep")
        assert cfg.engine == "numba-deep"
        assert _cfg(engine="auto").engine == DEFAULT_ENGINE


# ---------------------------------------------------------------------------
# engine="auto" through solve and the service
# ---------------------------------------------------------------------------

class TestAutoThroughApi:
    def test_solve_auto_resolves_and_stays_bit_identical(self):
        grid, field = _problem()
        ref = solve(grid, field, _cfg())
        got = solve(grid, field, _cfg(), engine="auto")
        assert got.config.engine == check_engine("auto")
        assert got.field.tobytes() == ref.field.tobytes()

    def test_auto_engine_cache_purity(self, deep_stub):
        """Auto and every concrete engine share one cache entry: after
        the first solve, zero further backend invocations."""
        from repro.serve import Service

        grid, field = _problem()
        with Service(workers=0) as svc:
            cold = svc.submit(grid, field, _cfg(), engine="auto")
            svc.drain()
            assert cold.result(timeout=0).config.engine == "numba-deep"
            assert svc.stats.backend_solves == 1
            warm = [svc.submit(grid, field, _cfg(), engine=e)
                    for e in list(available_engines()) + ["auto"]]
            assert all(w.cache_hit for w in warm)
            assert svc.stats.backend_solves == 1

    @pytest.mark.parametrize("backend, storage, topology", [
        ("shared", "twogrid", None),
        ("shared", "compressed", None),
        ("threads", "twogrid", None),
        ("threads", "compressed", None),
        ("simmpi", "twogrid", (2, 1, 1)),
    ])
    def test_auto_runs_the_resolved_engine_on_every_rail(
            self, counting_deep, backend, storage, topology):
        grid, field = _problem()
        cfg = _cfg(storage=storage)
        got = solve(grid, field, cfg, topology=topology, backend=backend,
                    engine="auto")
        assert got.config.engine == "numba-deep"
        assert counting_deep.calls > 0
        assert got.field.tobytes() == reference_sweeps(
            grid, field, cfg.total_updates).tobytes()

    def test_api_submit_auto_resolves(self, deep_stub):
        from repro.serve import Service

        grid, field = _problem()
        with Service(workers=1) as svc:
            fut = svc.submit(grid, field, _cfg(), engine="auto")
            assert fut.result(timeout=60).config.engine == "numba-deep"

    def test_concrete_engine_with_auto_config_still_rejected(self):
        from repro.serve import Service

        grid, field = _problem()
        with Service(workers=0) as svc:
            with pytest.raises(ValueError, match="concrete engine"):
                svc.submit(grid, field, "auto", engine="numpy")

    def test_auto_engine_with_auto_config_is_accepted(
            self, clean_auto_cache):
        from repro.serve import Service

        grid, field = _problem()
        with Service(workers=0) as svc:
            f = svc.submit(grid, field, "auto", engine="auto")
            svc.drain()
            assert f.result(timeout=0).config.engine == check_engine("auto")


# ---------------------------------------------------------------------------
# The autoconf memo
# ---------------------------------------------------------------------------

class TestAutoconfStaleness:
    def test_same_generation_memoises(self, clean_auto_cache, monkeypatch):
        from repro.serve import autoconf

        grid, _ = _problem()
        first = autoconf.auto_config(grid)

        def no_sweep(*args, **kw):
            raise AssertionError("the memo should have answered")

        monkeypatch.setattr(autoconf, "ranked_candidates", no_sweep)
        assert autoconf.auto_config(grid) == first


# ---------------------------------------------------------------------------
# A registered numba-deep is what every entry point resolves to
# ---------------------------------------------------------------------------

class TestAutoOrder:
    def test_config_auto_picks_numba_deep(self, deep_stub):
        assert _cfg(engine="auto").engine == "numba-deep"

    def test_solve_auto_picks_numba_deep(self, deep_stub):
        grid, field = _problem()
        got = solve(grid, field, _cfg(), engine="auto")
        assert got.config.engine == "numba-deep"
        assert got.field.tobytes() == solve(grid, field,
                                            _cfg()).field.tobytes()

    def test_service_submit_auto_picks_numba_deep(self, deep_stub):
        from repro.serve import Service

        grid, field = _problem()
        with Service(workers=0, cache=False) as svc:
            f = svc.submit(grid, field, _cfg(), engine="auto")
            svc.drain()
            assert f.result(timeout=0).config.engine == "numba-deep"

    def test_auto_config_memoised_before_registration(
            self, no_compiled, clean_auto_cache):
        from repro.serve import Service
        from repro.serve.autoconf import auto_config

        grid, field = _problem()
        assert auto_config(grid).engine == DEFAULT_ENGINE
        register_engine(DeepStub())
        try:
            # config="auto" alone keeps the sweep's default engine; the
            # rule applies where the caller asks for it.
            assert auto_config(grid).engine == DEFAULT_ENGINE
            with Service(workers=0, cache=False) as svc:
                plain = svc.submit(grid, field, "auto")
                ruled = svc.submit(grid, field, "auto", engine="auto")
                svc.drain()
                assert plain.result(timeout=0).config.engine == DEFAULT_ENGINE
                assert ruled.result(timeout=0).config.engine == "numba-deep"
        finally:
            unregister_engine("numba-deep")


# ---------------------------------------------------------------------------
# The E18 gate and the perf CLI follow the rule
# ---------------------------------------------------------------------------

class TestPerfHarness:
    @pytest.mark.parametrize("registry", ["no_compiled", "counting_deep"])
    def test_solve_auto_scenario_gates_the_rule(self, request, registry):
        from repro.perf.scenarios import get_scenario

        stub = request.getfixturevalue(registry)
        payload = get_scenario("solve_auto@quick").run_once()
        assert payload["rank"] == 0
        assert payload["not_worse"] is True
        assert payload["bit_identical"] is True
        if stub is not None:
            assert stub.calls > 0

    def test_cli_has_no_calibrate_command(self, capsys):
        from repro.perf.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["calibrate"])
        assert exc.value.code == 2
        assert "calibrate" in capsys.readouterr().err
