"""Coverage for the repro.perf subsystem.

Registry resolution, runner statistics on a stub timer, results-store
JSON round-trips, compare/regression verdicts, and the CLI contract
(``compare`` exits non-zero on an injected >10 % slowdown).
"""

from __future__ import annotations

import json
import math

import pytest

from repro.perf import (
    DEFAULT_THRESHOLD,
    Metric,
    RunRecord,
    Scenario,
    SchemaError,
    StoreError,
    WallStats,
    all_scenarios,
    archive_document,
    compare_documents,
    compare_to_model,
    get_scenario,
    load_document,
    make_document,
    records_of,
    regressions,
    register,
    render_deltas,
    run_scenario,
    save_document,
    select_scenarios,
    unregister,
)
from repro.perf.cli import main
from repro.perf.scenarios import SUITES


def _stub(name, value=100.0, suites=("quick",), gate=True,
          higher_is_better=True, model=None, setup=None):
    return Scenario(
        name=name,
        kind="kernel",
        suites=suites,
        fn=(lambda state=None: value) if setup is None
        else (lambda state: (state, value)),
        summarize=lambda payload, wall: {
            "metric": Metric(value, unit="u", gate=gate,
                             higher_is_better=higher_is_better)},
        params={"n": 1},
        setup=setup,
        model=model,
    )


@pytest.fixture()
def stub():
    sc = register(_stub("stub@test"))
    yield sc
    unregister("stub@test")


class TestRegistry:
    def test_builtin_matrix_is_nonempty_per_suite(self):
        for suite in SUITES:
            names = {sc.name for sc in select_scenarios(suite=suite)}
            assert any(n.startswith("fig3_left") for n in names)
            assert any(n.startswith("solve_simmpi") for n in names), suite
            # The process-backed rail measures in every suite too.
            assert f"solve_procmpi@{suite}" in names
            # Scale-independent models appear in every suite.
            assert {"fig5", "fig6"} <= names

    def test_procmpi_scenarios_declare_their_backend(self):
        for suite in SUITES:
            sc = get_scenario(f"solve_procmpi@{suite}")
            assert sc.kind == "solver"
            assert sc.params["backend"] == "procmpi"
            assert tuple(sc.params["topology"]) >= (1, 1, 1)

    def test_get_scenario_exact(self, stub):
        assert get_scenario("stub@test") is stub

    def test_unknown_scenario_suggests_siblings(self):
        with pytest.raises(KeyError, match="fig3_left"):
            get_scenario("fig3_left@nope")

    def test_duplicate_registration_rejected(self, stub):
        with pytest.raises(ValueError, match="already registered"):
            register(_stub("stub@test"))

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError, match="unknown suites"):
            register(_stub("bad@test", suites=("quickest",)))
        with pytest.raises(ValueError, match="unknown suite"):
            select_scenarios(suite="quickest")

    def test_pattern_selection(self, stub):
        assert [sc.name for sc in select_scenarios(pattern="stub@*")] \
            == ["stub@test"]

    def test_registry_is_sorted(self):
        names = [sc.name for sc in all_scenarios()]
        assert names == sorted(names)


class TestRunner:
    def test_stats_from_scripted_clock(self, stub):
        # Two timer calls per repeat: durations 1.0, 3.0, 2.0.
        ticks = iter([0.0, 1.0, 10.0, 13.0, 20.0, 22.0])
        rec = run_scenario(stub, repeats=3, warmup=0,
                           timer=lambda: next(ticks))
        assert rec.wall.repeats == 3
        assert rec.wall.min == 1.0
        assert rec.wall.median == 2.0
        assert rec.wall.mean == pytest.approx(2.0)
        assert rec.wall.stddev == pytest.approx((2 / 3) ** 0.5)

    def test_warmup_not_timed(self):
        calls = []
        counting = Scenario(
            name="count@test", kind="kernel", suites=("quick",),
            fn=lambda: calls.append(1),
            summarize=lambda p, w: {})
        ticks = iter(float(i) for i in range(100))
        rec = run_scenario(counting, repeats=2, warmup=3,
                           timer=lambda: next(ticks))
        assert len(calls) == 5  # 3 warmups + 2 timed
        assert rec.wall.warmup == 3

    def test_setup_runs_outside_timed_region(self):
        events = []
        sc = Scenario(
            name="setup@test", kind="kernel", suites=("quick",),
            setup=lambda: events.append("setup") or "state",
            fn=lambda state: events.append(f"run:{state}"),
            summarize=lambda p, w: {})
        rec = run_scenario(sc, repeats=2, warmup=1)
        assert events == ["setup", "run:state", "run:state", "run:state"]
        assert rec.scenario == "setup@test"

    def test_invalid_repeats_rejected(self, stub):
        with pytest.raises(ValueError):
            run_scenario(stub, repeats=0)
        with pytest.raises(ValueError):
            run_scenario(stub, warmup=-1)


def _doc(values, suite="quick", gate=True, higher_is_better=True):
    records = [
        RunRecord(scenario=name, kind="kernel",
                  params={"n": 1},
                  wall=WallStats.from_samples([0.5, 0.6, 0.7], warmup=1),
                  metrics={m: Metric(v, unit="u", gate=gate,
                                     higher_is_better=higher_is_better)
                           for m, v in metrics.items()})
        for name, metrics in values.items()]
    return make_document(suite, records, environment={"numpy": "test"})


class TestStore:
    def test_json_round_trip(self, tmp_path):
        doc = _doc({"a@quick": {"m1": 1.5, "m2": 2.5}})
        path = save_document(doc, tmp_path / "BENCH_quick.json")
        loaded = load_document(path)
        assert loaded == doc
        (rec,) = records_of(loaded)
        assert rec.metrics["m1"].value == 1.5
        assert rec.wall.median == 0.6
        assert rec.wall.stddev > 0

    def test_schema_version_enforced(self, tmp_path):
        doc = _doc({"a@quick": {"m": 1.0}})
        doc["schema"] = "repro.perf/999"
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(StoreError, match="repro.perf/999"):
            load_document(p)

    def test_malformed_json_and_records_rejected(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        with pytest.raises(StoreError, match="not valid JSON"):
            load_document(p)
        doc = _doc({"a@quick": {"m": 1.0}})
        del doc["records"][0]["scenario"]
        p2 = tmp_path / "norecord.json"
        p2.write_text(json.dumps(doc))
        with pytest.raises(SchemaError):
            load_document(p2)

    def test_nan_metric_round_trips_as_strict_json(self, tmp_path):
        import math
        rec = RunRecord(scenario="nan@quick", kind="kernel",
                        wall=WallStats.from_samples([0.1]),
                        metrics={"m": Metric(float("nan"), gate=False)})
        path = save_document(make_document("quick", [rec]),
                             tmp_path / "nan.json")
        # Strict parsers must accept the artifact (no bare NaN token).
        assert "NaN" not in path.read_text()
        (loaded,) = records_of(load_document(path))
        assert math.isnan(loaded.metrics["m"].value)

    def test_archive_never_clobbers(self, tmp_path):
        doc = _doc({"a@quick": {"m": 1.0}})
        first = archive_document(doc, tmp_path)
        second = archive_document(doc, tmp_path)
        assert first != second
        assert first.exists() and second.exists()
        assert first.name.startswith("quick-")


class TestCompare:
    def test_identical_docs_all_ok(self):
        doc = _doc({"a@quick": {"m": 100.0}})
        deltas = compare_documents(doc, doc)
        assert [d.status for d in deltas] == ["ok"]
        assert not regressions(deltas)

    def test_slowdown_beyond_threshold_regresses(self):
        base = _doc({"a@quick": {"m": 100.0}})
        new = _doc({"a@quick": {"m": 89.0}})  # -11 % < -10 %
        deltas = compare_documents(base, new, threshold=DEFAULT_THRESHOLD)
        (d,) = regressions(deltas)
        assert d.scenario == "a@quick" and d.metric == "m"
        assert d.rel == pytest.approx(-0.11)

    def test_slowdown_within_threshold_ok(self):
        base = _doc({"a@quick": {"m": 100.0}})
        new = _doc({"a@quick": {"m": 91.0}})  # -9 %
        assert not regressions(compare_documents(base, new))

    def test_speedup_reported_as_improved(self):
        base = _doc({"a@quick": {"m": 100.0}})
        new = _doc({"a@quick": {"m": 130.0}})
        (d,) = compare_documents(base, new)
        assert d.status == "improved"

    def test_lower_is_better_direction(self):
        base = _doc({"a@quick": {"bytes": 1000.0}}, higher_is_better=False)
        grew = _doc({"a@quick": {"bytes": 1200.0}}, higher_is_better=False)
        (d,) = regressions(compare_documents(base, grew))
        assert d.rel == pytest.approx(0.2)
        shrank = _doc({"a@quick": {"bytes": 500.0}}, higher_is_better=False)
        assert not regressions(compare_documents(base, shrank))

    def test_gated_metric_turning_nan_fails_the_gate(self):
        base = _doc({"a@quick": {"m": 100.0}})
        new = _doc({"a@quick": {"m": float("nan")}})
        (d,) = regressions(compare_documents(base, new))
        assert d.metric == "m" and d.rel is None
        # ... and NaN -> NaN stays quiet, NaN -> finite reads as improved.
        assert not regressions(compare_documents(new, new))
        (back,) = compare_documents(new, base)
        assert back.status == "improved"

    def test_zero_base_direction(self):
        none = _doc({"a@quick": {"bytes": 0.0}}, higher_is_better=False)
        some = _doc({"a@quick": {"bytes": 64.0}}, higher_is_better=False)
        # Traffic appearing out of nowhere is a regression...
        (d,) = regressions(compare_documents(none, some))
        assert d.new == 64.0
        # ... throughput appearing is an improvement, 0 -> 0 is ok.
        up = compare_documents(_doc({"a@quick": {"m": 0.0}}),
                               _doc({"a@quick": {"m": 5.0}}))
        assert [d.status for d in up] == ["improved"]
        assert not regressions(compare_documents(none, none))

    def test_added_and_removed_never_gate(self):
        base = _doc({"a@quick": {"m": 1.0}})
        new = _doc({"b@quick": {"m": 1.0}})
        statuses = {d.scenario: d.status for d in
                    compare_documents(base, new)}
        assert statuses == {"a@quick": "removed", "b@quick": "added"}
        assert not regressions(compare_documents(base, new))

    def test_non_gated_metrics_skipped_by_default(self):
        base = _doc({"a@quick": {"m": 100.0}}, gate=False)
        new = _doc({"a@quick": {"m": 10.0}}, gate=False)
        assert compare_documents(base, new) == []
        deltas = compare_documents(base, new, gate_only=False)
        assert [d.status for d in deltas] == ["regressed"]

    def test_wall_comparison_opt_in(self):
        base = _doc({"a@quick": {"m": 100.0}})
        new = _doc({"a@quick": {"m": 100.0}})
        deltas = compare_documents(base, new, include_wall=True)
        assert any(d.metric == "wall/median" for d in deltas)

    def test_render_deltas_mentions_every_status(self):
        base = _doc({"a@quick": {"m": 100.0}, "gone@quick": {"m": 1.0}})
        new = _doc({"a@quick": {"m": 50.0}})
        text = render_deltas(compare_documents(base, new))
        assert "regressed" in text and "removed" in text
        assert render_deltas([]) == "(no comparable metrics)"

    def test_compare_to_model(self):
        sc = register(_stub(
            "modelled@test", value=90.0,
            model=lambda: {"metric": 100.0, "unmeasured": 5.0}))
        try:
            rec = run_scenario(sc, repeats=1, warmup=0)
            doc = make_document("quick", [rec])
            deltas = compare_to_model(doc, threshold=0.15)
            by_metric = {d.metric: d for d in deltas}
            assert by_metric["metric"].status == "ok"
            assert by_metric["metric"].rel == pytest.approx(-0.1)
            assert by_metric["unmeasured"].status == "removed"
            # Tighter threshold flips the verdict.
            tight = compare_to_model(doc, threshold=0.05)
            assert {d.status for d in tight if d.metric == "metric"} \
                == {"deviates"}
        finally:
            unregister("modelled@test")


class TestCLI:
    def _write(self, tmp_path, name, value):
        return save_document(_doc({"a@quick": {"m": value}}),
                             tmp_path / name)

    def test_compare_ok_exit_zero(self, tmp_path, capsys):
        a = self._write(tmp_path, "a.json", 100.0)
        b = self._write(tmp_path, "b.json", 95.0)
        assert main(["compare", str(a), str(b)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_compare_injected_slowdown_exits_nonzero(self, tmp_path, capsys):
        a = self._write(tmp_path, "a.json", 100.0)
        b = self._write(tmp_path, "b.json", 85.0)  # -15 % > 10 % gate
        assert main(["compare", str(a), str(b)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_compare_threshold_flag(self, tmp_path):
        a = self._write(tmp_path, "a.json", 100.0)
        b = self._write(tmp_path, "b.json", 85.0)
        assert main(["compare", "--threshold", "0.2", str(a), str(b)]) == 0

    def test_compare_missing_file_is_error(self, tmp_path, capsys):
        a = self._write(tmp_path, "a.json", 100.0)
        assert main(["compare", str(a), str(tmp_path / "nope.json")]) == 2
        assert "error" in capsys.readouterr().err

    def test_run_writes_schema_versioned_doc(self, tmp_path, capsys):
        sc = register(_stub("clirun@test"))
        try:
            out = tmp_path / "BENCH_quick.json"
            code = main(["run", "--suite", "quick", "--filter",
                         "clirun@*", "--repeats", "2", "--out", str(out),
                         "--archive-dir", str(tmp_path / "archive")])
            assert code == 0
            doc = load_document(out)
            assert doc["suite"] == "quick"
            assert doc["run_config"]["repeats"] == 2
            assert doc["environment"]["numpy"]
            (rec,) = records_of(doc)
            assert rec.scenario == "clirun@test"
            assert list((tmp_path / "archive").glob("quick-*.json"))
        finally:
            unregister("clirun@test")

    def test_run_empty_selection_is_usage_error(self, tmp_path, capsys):
        code = main(["run", "--suite", "quick", "--filter", "nope*",
                     "--out", str(tmp_path / "x.json")])
        assert code == 2
        assert "no scenarios match" in capsys.readouterr().err

    def test_figure_params_are_the_generator_call(self):
        # The persisted metadata must be the kwargs that actually ran.
        sc = get_scenario("model_validation@quick")
        rec = run_scenario(sc, repeats=1, warmup=0)
        assert tuple(rec.params["T_values"]) == (1, 2, 4)
        assert {f"T={t}/sim_mlups" for t in rec.params["T_values"]} \
            <= set(rec.metrics)

    def test_list_shows_matrix(self, capsys):
        assert main(["list", "--suite", "quick"]) == 0
        out = capsys.readouterr().out
        assert "fig3_left@quick" in out and "solve_simmpi@quick" in out

    def test_report_renders_doc(self, tmp_path, capsys):
        a = self._write(tmp_path, "a.json", 100.0)
        assert main(["report", str(a)]) == 0
        out = capsys.readouterr().out
        assert "a@quick" in out and "wall median" in out

    def test_run_then_report_prints_figure_records(self, tmp_path, capsys):
        # `report` is the one renderer of the figure scenarios.
        out = tmp_path / "BENCH_quick.json"
        assert main(["run", "--suite", "quick", "--filter", "fig[56]",
                     "--repeats", "1", "--warmup", "0", "--out", str(out),
                     "--no-archive"]) == 0
        capsys.readouterr()
        assert main(["report", str(out)]) == 0
        report = capsys.readouterr().out
        assert "fig5  [figure]" in report and "fig6  [figure]" in report
        assert "advantage/h=2/L=320" in report
        assert "strong/pipelined 2PPN/nodes=64" in report

    def test_report_renders_procmpi_entries_with_nan_and_zero(self, tmp_path,
                                                              capsys):
        # A procmpi scenario record with a NaN throughput (unmeasurable
        # host clock) and a zero traffic counter must render, not crash,
        # and keep the gate column honest.
        rec = RunRecord(
            scenario="solve_procmpi@quick", kind="solver",
            params={"backend": "procmpi", "topology": (2, 1, 1)},
            wall=WallStats.from_samples([0.2, 0.3], warmup=1),
            metrics={
                "mcups": Metric(float("nan"), unit="Mcell/s", gate=False),
                "bytes_exchanged": Metric(0.0, unit="B",
                                          higher_is_better=False),
            })
        p = save_document(make_document("quick", [rec]),
                          tmp_path / "proc.json")
        assert main(["report", str(p)]) == 0
        out = capsys.readouterr().out
        assert "solve_procmpi@quick" in out
        assert "bytes_exchanged" in out and "nan" in out.lower()

    def test_compare_zero_baseline_procmpi_counters(self, tmp_path, capsys):
        # Zero-baseline edge on the deterministic procmpi counters: the
        # degenerate (1,1,1) run exchanges nothing; traffic appearing in
        # the candidate must fail the gate even though no finite relative
        # change exists.
        base = _doc({"solve_procmpi@quick": {"bytes_exchanged": 0.0}},
                    higher_is_better=False)
        new = _doc({"solve_procmpi@quick": {"bytes_exchanged": 4096.0}},
                   higher_is_better=False)
        a = save_document(base, tmp_path / "base.json")
        b = save_document(new, tmp_path / "new.json")
        assert main(["compare", str(a), str(b)]) == 1
        assert "FAIL" in capsys.readouterr().out
        # ... and the reverse direction (traffic disappearing) passes.
        assert main(["compare", str(b), str(a)]) == 0

    def test_compare_model_nan_and_zero_prediction_edges(self):
        # A zero model prediction has no finite relative error and a NaN
        # measurement compares false against any threshold: both must
        # surface as 'deviates' (never 'ok', never a crash).
        sc = register(_stub(
            "proc_model@test", value=float("nan"),
            model=lambda: {"metric": 100.0, "zero_pred": 0.0}))
        try:
            rec = run_scenario(sc, repeats=1, warmup=0)
            rec.metrics["zero_pred"] = Metric(5.0, unit="u")
            doc = make_document("quick", [rec])
            by_metric = {d.metric: d for d in compare_to_model(doc)}
            nan_delta = by_metric["metric"]
            assert nan_delta.status == "deviates"
            assert math.isnan(nan_delta.new)
            zero_delta = by_metric["zero_pred"]
            assert zero_delta.status == "deviates"
            assert zero_delta.rel is None and zero_delta.base == 0.0
        finally:
            unregister("proc_model@test")

    def test_model_compare_single_file(self, tmp_path, capsys):
        sc = register(_stub("climodel@test", value=100.0,
                            model=lambda: {"metric": 100.0}))
        try:
            rec = run_scenario(sc, repeats=1, warmup=0)
            p = save_document(make_document("quick", [rec]),
                              tmp_path / "m.json")
            assert main(["compare", "--model", str(p)]) == 0
            assert main(["compare", "--model", "--strict", str(p)]) == 0
            # Two positional files together with --model is a usage error.
            assert main(["compare", "--model", str(p), str(p)]) == 2
        finally:
            unregister("climodel@test")


def _payload(base):
    sc = get_scenario(f"{base}@quick")
    return sc.run_once(sc.setup() if sc.setup is not None else None)


class TestHostRail:
    """E10: the host kernel and functional-solver scenarios run and
    report sane throughputs and communication counters."""

    def test_host_stream_bandwidth(self):
        assert _payload("host_stream").bandwidth > 1e8  # else the timer broke

    @pytest.mark.parametrize("base", ["jacobi_sweep", "jacobi_sweep_blocked"])
    def test_sweep_throughput(self, base):
        rec = run_scenario(get_scenario(f"{base}@quick"), repeats=1, warmup=0)
        assert rec.metrics["mlups"].value > 0

    @pytest.mark.parametrize("base", ["solve_shared", "solve_shared_validated"])
    def test_shared_solve_exchanges_nothing(self, base):
        res = _payload(base)
        assert res.stats.cells_updated > 0
        assert res.bytes_exchanged == 0 and res.messages == 0

    def test_simmpi_solve_communicates(self):
        res = _payload("solve_simmpi")
        assert res.n_ranks > 1
        assert res.bytes_exchanged > 0 and res.messages > 0
