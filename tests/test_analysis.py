"""The static analyzer: adversarial schedules, certification, lint.

Three layers of evidence that the analyzer means what it says:

* **Adversarial** — every known-illegal schedule family (empty window,
  insufficient lead, sub-minimal halo, compressed storage on the
  distributed rail) is rejected with a concrete witness, and the
  near-miss legal neighbours of each are certified — the analyzer
  discriminates, it does not just say no.
* **Differential** — every schedule the analyzer certifies in the
  quick perf suite, and every generated constructible schedule it
  certifies (multi-axis tilings at ``d_l = 1`` included), solves
  byte-identically to the reference sweeps: certification is sound on
  the cases we run.
* **Lint** — each project rule fires on a minimal bad example and the
  shipped tree has zero findings (pinned as a regression).
"""

import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

import repro
from repro.analysis import (
    Finding,
    Report,
    ScheduleSpec,
    StaticAnalysisError,
    analyze_schedule,
    assert_legal,
    lint_paths,
    lint_source,
)
from repro.core.executor import ORDERS
from repro.core.parameters import BarrierSpec, PipelineConfig, RelaxedSpec
from repro.grid import Grid3D, random_field
from repro.kernels import reference_sweeps

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"

SHAPE = (32, 32, 32)
BLOCK = (8, 64, 64)


def spec(**kw):
    base = dict(teams=1, threads_per_team=4, updates_per_thread=1,
                block_size=BLOCK, sync_kind="relaxed", d_l=1, d_u=4)
    base.update(kw)
    return ScheduleSpec(**base)


def errors_of(report, checker):
    return [f for f in report.errors if f.checker == checker]


# -- report plumbing ---------------------------------------------------------


def test_finding_rejects_bad_severity():
    with pytest.raises(ValueError, match="severity"):
        Finding("x", "fatal", "loc", "msg")


def test_report_ok_ignores_warnings():
    r = Report(subject="s")
    r.add("w", "warning", "loc", "msg")
    assert r.ok and not r.errors
    r.add("e", "error", "loc", "msg")
    assert not r.ok
    assert "REJECTED" in r.describe()


# -- certification of legal schedules ----------------------------------------


def test_certifies_paper_default_window():
    report = analyze_schedule(spec(), SHAPE)
    assert report.ok, report.describe()
    assert any("closed form" in n for n in report.notes)


def test_certifies_barrier_and_teams():
    assert analyze_schedule(spec(sync_kind="barrier"), SHAPE).ok
    assert analyze_schedule(
        spec(teams=2, threads_per_team=2, updates_per_thread=2,
             team_delay=1), SHAPE).ok


def test_certifies_compressed_inplace():
    # The compressed grid's WAR/WAW relations (the write lands on the
    # cells one shift behind) leave the paper's window legal.
    report = analyze_schedule(spec(storage="compressed"), SHAPE)
    assert report.ok, report.describe()


def test_drain_waiver_precision():
    # d_u = d_l - 1: RelaxedSpec refuses to construct this window, but
    # its slack d_u + 1 - d_l is zero, so it never freezes (the finished-
    # predecessor waiver unblocks the tail) — the analyzer is *more*
    # precise than the constructor guard, not a mirror of it.
    report = analyze_schedule(spec(d_l=2, d_u=1), SHAPE)
    assert report.ok, report.describe()


# -- adversarial: hazard windows ---------------------------------------------


def test_d_l_zero_yields_raw_witness():
    report = analyze_schedule(spec(d_l=0), SHAPE)
    raw = errors_of(report, "raw-hazard")
    assert raw, report.describe()
    assert "witness interleaving" in raw[0].witness
    assert "required lead" in raw[0].witness


def test_empty_window_deadlocks_with_witness():
    report = analyze_schedule(spec(d_l=3, d_u=1), SHAPE)
    dead = errors_of(report, "deadlock")
    assert dead, report.describe()
    assert "interleaving" in dead[0].witness


def test_assert_legal_raises_with_report():
    cfg = PipelineConfig(teams=1, threads_per_team=4,
                         updates_per_thread=1, block_size=BLOCK,
                         sync=RelaxedSpec(1, 4))
    assert_legal(cfg, SHAPE)  # legal: no raise
    with pytest.raises(StaticAnalysisError) as exc:
        assert_legal(spec(d_l=0), SHAPE)
    assert not exc.value.report.ok


# -- adversarial: distributed geometry ---------------------------------------


def test_subminimal_halo_rejected_with_trapezoid_witness():
    s = spec(teams=2, threads_per_team=2, updates_per_thread=2)
    assert s.updates_per_pass == 8
    report = analyze_schedule(s, SHAPE, (2, 1, 1), halo=4)
    assert errors_of(report, "halo-depth"), report.describe()
    trap = errors_of(report, "trapezoid")
    assert trap and "is read but never stored" in trap[0].witness


def test_oversized_halo_is_a_warning_only():
    s = spec(teams=2, threads_per_team=2, updates_per_thread=2)
    report = analyze_schedule(s, SHAPE, (2, 1, 1), halo=10)
    assert report.ok
    assert any(f.checker == "halo-depth" and f.severity == "warning"
               for f in report.findings)


def test_compressed_storage_illegal_distributed():
    report = analyze_schedule(
        spec(storage="compressed"), SHAPE, (2, 1, 1))
    assert errors_of(report, "dist-storage"), report.describe()


def test_structural_config_errors_never_crash():
    report = analyze_schedule(spec(teams=0), SHAPE)
    assert errors_of(report, "config-error")
    report = analyze_schedule(spec(block_size=(0, 1, 1)), SHAPE)
    assert errors_of(report, "config-error")


# -- differential: certified => bit-identical to reference -------------------


def test_certified_quick_suite_solves_match_reference():
    from repro.perf.scenarios import solver_schedules

    for name, shape, cfg, topo in solver_schedules("quick"):
        report = analyze_schedule(cfg, shape, topo)
        assert report.ok, f"{name}: {report.describe()}"
        grid = Grid3D(shape)
        field = random_field(shape, np.random.default_rng(11))
        backend = "simmpi" if topo != (1, 1, 1) else "shared"
        got = repro.solve(grid, field, cfg, topology=topo,
                          backend=backend, validate="static")
        ref = reference_sweeps(grid, field, cfg.total_updates)
        assert np.array_equal(got.field, ref), name


@st.composite
def constructible_cases(draw):
    """A single-process schedule ``PipelineConfig`` accepts: any tiling
    of one, two or three axes (dividing or not), ``n, t, T``, a barrier
    or an Eq. 3 window with ``d_l`` 1-3, either storage, any
    interleaver order, one or two passes."""
    shape = (draw(st.integers(4, 12)), draw(st.integers(3, 8)),
             draw(st.integers(3, 8)))
    block = tuple(draw(st.sampled_from([1, 2, 3, 5, 1000])) for _ in range(3))
    if draw(st.booleans()):
        d_l = draw(st.integers(1, 3))
        sync = RelaxedSpec(d_l, d_l + draw(st.integers(0, 4)),
                           draw(st.integers(0, 2)))
    else:
        sync = BarrierSpec()
    cfg = PipelineConfig(teams=draw(st.integers(1, 2)),
                         threads_per_team=draw(st.integers(1, 3)),
                         updates_per_thread=draw(st.integers(1, 2)),
                         block_size=block, sync=sync,
                         storage=draw(st.sampled_from(["twogrid",
                                                       "compressed"])),
                         passes=draw(st.integers(1, 2)))
    tiled = sum(b < n for b, n in zip(block, shape))
    event(f"{tiled} tiled axes")
    return (shape, cfg, draw(st.sampled_from(ORDERS)),
            draw(st.integers(0, 2**16)))


@settings(max_examples=80, deadline=None)
@given(constructible_cases())
def test_certified_schedules_run_byte_identical(case):
    # Analyzer legal => run correct.  The one-cell shift along
    # every tiled axis keeps each read of update u inside blocks that
    # precede the current one lexicographically, so one block of lead
    # is enough however many axes are tiled: every constructible
    # schedule is certified, and every certified one must run exactly.
    shape, cfg, order, seed = case
    report = analyze_schedule(cfg, shape)
    grid = Grid3D(shape)
    field = random_field(shape, np.random.default_rng(seed))
    run = partial(repro.run_pipelined, grid, field, cfg, order=order,
                  rng=np.random.default_rng(seed + 1))
    if cfg.storage == "compressed" and all(
            b >= n for b, n in zip(cfg.block_size, shape)):
        # No tiled axis to shift the compressed levels along: the
        # analyzer refuses what the storage refuses.
        assert [f.checker for f in report.errors] == ["config-error"]
        with pytest.raises(ValueError, match="bad shift vector"):
            run()
        return
    assert report.ok, report.describe()
    got = run()
    want = reference_sweeps(grid, field, cfg.total_updates)
    assert got.field.tobytes() == want.tobytes()


@pytest.mark.parametrize("backend,validate,calls", [
    ("shared", True, 1), ("shared", False, 0), ("shared", "static", 1),
    ("threads", True, 1), ("threads", False, 1), ("threads", "static", 1),
])
def test_each_solve_certifies_at_most_once(backend, validate, calls,
                                           monkeypatch):
    # The threads executor certifies unconditionally and solve(...,
    # validate=True or "static") certifies on every backend; the verdict
    # memo makes the second certification of one geometry free, so no
    # solve runs the analyzer twice, and a second solve does not run it
    # at all.
    from repro.analysis import checker

    seen = []
    real = checker.analyze_schedule

    def spy(*args, **kwargs):
        seen.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(checker, "analyze_schedule", spy)
    assert_legal.cache_clear()
    grid = Grid3D((12, 10, 10))
    field = random_field(grid.shape, np.random.default_rng(3))
    cfg = PipelineConfig(teams=1, threads_per_team=2,
                         updates_per_thread=2, block_size=(4, 64, 64),
                         sync=RelaxedSpec(1, 2))
    res = repro.solve(grid, field, cfg, backend=backend, validate=validate)
    assert len(seen) == calls
    ref = reference_sweeps(grid, field, cfg.total_updates)
    assert res.field.tobytes() == ref.tobytes()
    # The second solve of the same geometry certifies 0 times.
    again = repro.solve(grid, field, cfg, backend=backend, validate=validate)
    assert len(seen) == calls
    assert again.field.tobytes() == ref.tobytes()


def test_solve_validate_static_rejects_before_running():
    grid = Grid3D((16, 16, 16))
    field = random_field(grid.shape, np.random.default_rng(0))
    cfg = PipelineConfig(teams=1, threads_per_team=2,
                         updates_per_thread=1, block_size=(4, 64, 64),
                         sync=RelaxedSpec(1, 2))
    before = field.copy()
    res = repro.solve(grid, field, cfg, validate="static")
    assert res.field.shape == field.shape
    assert np.array_equal(field, before)  # input untouched
    with pytest.raises(ValueError, match="validate"):
        repro.solve(grid, field, cfg, validate="sometimes")


def test_autotune_prunes_illegal_candidates():
    from repro.core.autotune import autotune
    from repro.machine import nehalem_ep

    machine = nehalem_ep()
    legal = autotune(machine, shape=(60, 60, 60), bx_values=(60,),
                     bz_values=(10,), T_values=(1,), du_values=(1, 2))
    assert legal  # the stock axes survive the pre-prune
    unpruned = autotune(machine, shape=(60, 60, 60), bx_values=(60,),
                        bz_values=(10,), T_values=(1,), du_values=(1, 2),
                        prune_illegal=False)
    assert [r.config for r in legal] == [r.config for r in unpruned]


def test_auto_config_refuses_what_the_analyzer_refuses():
    # A 2-cell x axis cut four ways cannot hold a rank core: the
    # analyzer's dist-geometry error is autoconf's only validity test,
    # and with every candidate refused the resolution fails loudly.
    from repro.serve.autoconf import auto_config

    assert not analyze_schedule(PipelineConfig(), (2, 2, 2), (1, 1, 4)).ok
    with pytest.raises(ValueError, match="no valid pipeline configuration"):
        auto_config(Grid3D((2, 2, 2)), (1, 1, 4))


@pytest.mark.parametrize("backend, refusal", [
    ("shared", ValueError), ("threads", StaticAnalysisError)])
def test_compressed_without_a_tiled_axis_is_a_config_error(backend, refusal):
    # Certified, then refused by the storage ("bad shift vector"), until
    # the analyzer learned that compressed levels shift along tiled axes.
    cfg = PipelineConfig(teams=1, threads_per_team=2, updates_per_thread=1,
                         block_size=(8, 8, 8), storage="compressed")
    report = analyze_schedule(cfg, (8, 8, 8))
    assert [(f.checker, f.message.split(":")[0]) for f in report.errors] == [
        ("config-error", "compressed storage needs a tiled axis to shift along")]
    grid = Grid3D((8, 8, 8))
    # The storage refuses it; the threads rail's certificate now first.
    with pytest.raises(refusal):
        repro.solve(grid, random_field(grid.shape, np.random.default_rng(0)),
                    cfg, backend=backend)
    # So the service's sweep never offers one; without the check it
    # ranked such configs 3rd, 4th, 15th, ... for an 8^3 grid.
    from repro.serve.autoconf import _default_machine, ranked_candidates

    for c in ranked_candidates(_default_machine(), (8, 8, 8), False):
        assert c.config.storage == "twogrid" or any(
            b < 8 for b in c.config.block_size), c.config


def test_report_ok_is_the_boolean_face():
    # What autotune's pre-prune and autoconf's validity test read.
    cfg = PipelineConfig(teams=1, threads_per_team=4,
                         updates_per_thread=1, block_size=BLOCK,
                         sync=RelaxedSpec(1, 4))
    assert analyze_schedule(cfg, SHAPE).ok
    assert not analyze_schedule(spec(d_l=0), SHAPE).ok


# -- lint: each rule fires on a minimal bad example --------------------------


def lint_findings(source, path="pkg/mod.py"):
    return [f.checker for f in lint_source(path, source)]


def test_lint_spawn_pickle():
    assert "spawn-pickle" in lint_findings(
        "run_procs(2, lambda rank: rank)\n")
    nested = ("def outer():\n"
              "    def entry(rank):\n"
              "        return rank\n"
              "    pool.run_job(entry, ())\n")
    assert "spawn-pickle" in lint_findings(nested)
    module_level = ("def entry(rank):\n"
                    "    return rank\n"
                    "def outer():\n"
                    "    pool.run_job(entry, ())\n")
    assert "spawn-pickle" not in lint_findings(module_level)


def test_lint_shm_lifecycle():
    assert "shm-lifecycle" in lint_findings(
        "shm = SharedMemory(create=True, size=64)\n")
    # attach (create absent/False) is fine anywhere
    assert "shm-lifecycle" not in lint_findings(
        "shm = SharedMemory(name='x')\n")
    # the owning module itself is exempt
    assert "shm-lifecycle" not in lint_findings(
        "shm = SharedMemory(create=True, size=64)\n",
        path="src/repro/dist/shm.py")
    leak = "pool = ShmPool()\n"
    assert "shm-lifecycle" in lint_findings(leak)
    assert "shm-lifecycle" not in lint_findings(
        leak + "pool.cleanup()\n")


def test_lint_engine_contract():
    no_semantics = ("class FastEngine(Engine):\n"
                    "    name = 'fast'\n")
    assert "engine-contract" in lint_findings(
        no_semantics, path="src/repro/engine/fast.py")
    assert "engine-contract" not in lint_findings(
        no_semantics + "    semantics = JacobiSemantics\n",
        path="src/repro/engine/fast.py")
    # the rule is scoped to engine modules
    assert "engine-contract" not in lint_findings(
        no_semantics, path="src/repro/core/fast.py")
    poke = "def run(storage):\n    return storage._dst\n"
    assert "engine-contract" in lint_findings(
        poke, path="src/repro/engine/fast.py")
    uncommitted = ("def run(storage):\n"
                   "    v = storage.write_view(box, 1)\n"
                   "    v[:] = 0\n")
    assert "engine-contract" in lint_findings(
        uncommitted, path="src/repro/engine/fast.py")


def test_lint_naked_perf_counter():
    naked = "import time\nt0 = time.perf_counter()\nprint(t0)\n"
    bare = "from time import perf_counter\nt0 = perf_counter()\nprint(t0)\n"
    # Serving/observability modules must route timing through the
    # sanctioned clock wrappers, or monitor timestamps drift apart.
    assert "no-naked-perf-counter" in lint_findings(
        naked, path="src/repro/serve/service.py")
    assert "no-naked-perf-counter" in lint_findings(
        bare, path="src/repro/obs/monitor/core.py")
    assert "no-naked-perf-counter" in lint_findings(
        "import time\nt = time.perf_counter_ns()\nprint(t)\n",
        path="src/repro/obs/metrics.py")
    # The clock primitives themselves are the allowlist.
    assert "no-naked-perf-counter" not in lint_findings(
        naked, path="src/repro/obs/tracer.py")
    assert "no-naked-perf-counter" not in lint_findings(
        naked, path="src/repro/obs/monitor/sampling.py")
    # Out-of-scope trees (perf owns its own timing loops) are ignored.
    assert "no-naked-perf-counter" not in lint_findings(
        naked, path="src/repro/perf/runner.py")
    # The sanctioned spelling is clean in scope.
    assert "no-naked-perf-counter" not in lint_findings(
        "from .monitor import monotime\nt0 = monotime()\nprint(t0)\n",
        path="src/repro/serve/service.py")


def test_lint_syntax_error_is_a_finding():
    assert "syntax" in lint_findings("def broken(:\n")


# -- the shipped tree is clean (regression pin) ------------------------------


def test_src_tree_has_zero_lint_findings():
    report = lint_paths([str(SRC)])
    assert report.ok, report.describe()
    assert not report.findings, report.describe()


def test_shipped_engines_pass_contract_rule():
    report = lint_paths([str(SRC / "engine")])
    assert report.ok, report.describe()


# -- CLI ---------------------------------------------------------------------


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *args],
        capture_output=True, text=True,
        cwd=str(REPO), env={"PYTHONPATH": str(REPO / "src"),
                            "PATH": "/usr/bin:/bin"})


def test_cli_certifies_quick_suite():
    proc = run_cli("check-schedule", "--suite", "quick")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    from repro.perf.scenarios import solver_schedules

    n = len(list(solver_schedules("quick")))
    assert f"{n}/{n} schedule(s) certified" in proc.stdout


def test_cli_rejects_illegal_flags():
    proc = run_cli("check-schedule", "--d-l", "0", "--block", "8,64,64")
    assert proc.returncode == 1
    assert "REJECTED" in proc.stdout


def test_cli_lint_clean_tree():
    proc = run_cli("lint", "src/repro/analysis")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "CERTIFIED" in proc.stdout
