"""Certification cost and reuse: the linear coverage check and the verdict memo.

* **Coverage differential** — the analyzer decides coverage from the
  per-axis row tables (:meth:`BlockDecomposition.level_rows`); the
  pairwise partition check it replaced is kept here as the oracle, and
  on every generated geometry, intact or with one span moved by a cell,
  the two verdicts agree.
* **Memo** — :func:`repro.analysis.assert_legal` is memoised by value:
  a repeated geometry runs the analyzer once, a config changed after
  construction is a new key, a refusal raises the same text every time,
  and no caller ever holds the cached report itself.
* **Tripwire** — certifying a cache-sized tiling does no pairwise box
  algebra (cProfile call counts, host-independent).
"""

import cProfile
import pstats
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.analysis import (
    ScheduleSpec,
    StaticAnalysisError,
    analyze_schedule,
    assert_legal,
    checker,
)
from repro.analysis.findings import Report
from repro.analysis.hazards import check_coverage_static
from repro.core.parameters import PipelineConfig, RelaxedSpec
from repro.grid import Grid3D, blocks, random_field
from repro.grid.blocks import BlockDecomposition
from repro.grid.region import Box, boxes_partition
from repro.kernels import reference_sweeps


@pytest.fixture(autouse=True)
def fresh_memo():
    """Every test starts and ends with an empty verdict memo."""
    assert_legal.cache_clear()
    yield
    assert_legal.cache_clear()


@pytest.fixture
def analyses(monkeypatch):
    """The ``(spec, shape, topology)`` of every analyzer run."""
    seen = []
    real = checker.analyze_schedule

    def spy(config, shape, topology=(1, 1, 1), **kwargs):
        seen.append((config, tuple(shape), tuple(topology)))
        return real(config, shape, topology, **kwargs)

    monkeypatch.setattr(checker, "analyze_schedule", spy)
    return seen


def small_block_config(**kw):
    base = dict(teams=1, threads_per_team=2, updates_per_thread=2,
                block_size=(4, 16, 16), sync=RelaxedSpec(1, 4))
    base.update(kw)
    return PipelineConfig(**base)


# -- the coverage check against the pairwise oracle ---------------------------


def pairwise_coverage_ok(spec, decomp):
    """The quadratic check the analyzer used to run: the oracle."""
    return all(boxes_partition(decomp.level_regions(u - 1), decomp.domain)
               for u in range(1, spec.updates_per_pass + 1))


def linear_coverage_ok(spec, decomp):
    report = Report("coverage")
    check_coverage_static(spec, decomp, report)
    return report.ok


def moved_span_rows(offset, k, dlo, dhi):
    """An ``axis_row`` whose block ``k`` at ``offset`` has moved ends."""
    real = blocks.axis_row

    def axis_row(dom_lo, dom_hi, block, count, off, mirror, act_lo, act_hi):
        row = real(dom_lo, dom_hi, block, count, off, mirror, act_lo, act_hi)
        if off != offset or k >= len(row) or not row[k].n:
            return row
        span = row[k]
        lo, hi = span.lo + dlo, span.hi + dhi
        moved = span._replace(lo=lo, hi=hi, n=max(0, hi - lo))
        return row[:k] + (moved,) + row[k + 1:]

    return axis_row


@st.composite
def geometries(draw):
    shape = tuple(draw(st.integers(1, 12)) for _ in range(3))
    block = tuple(draw(st.integers(1, n + 2)) for n in shape)
    h = draw(st.integers(1, 6))
    spec = ScheduleSpec(teams=1, threads_per_team=1, updates_per_thread=h,
                        block_size=block)
    decomp = BlockDecomposition(Box.from_shape(shape), block, h - 1)
    return spec, decomp


class TestCoverageDifferential:
    @given(geometry=geometries())
    @settings(max_examples=150, deadline=None)
    def test_intact_rows_agree_with_the_pairwise_oracle(self, geometry):
        spec, decomp = geometry
        assert linear_coverage_ok(spec, decomp)
        assert pairwise_coverage_ok(spec, decomp)

    @given(geometry=geometries(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_moved_spans_agree_with_the_pairwise_oracle(self, geometry, data):
        spec, decomp = geometry
        offset = data.draw(st.integers(0, spec.max_shift), label="offset")
        k = data.draw(st.integers(0, 4), label="k")
        dlo = data.draw(st.integers(-1, 1), label="dlo")
        dhi = data.draw(st.integers(-1, 1), label="dhi")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(blocks, "axis_row", moved_span_rows(offset, k, dlo, dhi))
            assert (linear_coverage_ok(spec, decomp)
                    == pairwise_coverage_ok(spec, decomp))

    @pytest.mark.parametrize("dlo,dhi,what", [(1, 0, "gap"), (-1, 0, "overlap"),
                                              (0, -1, "gap"), (0, 1, "overlap")])
    def test_a_one_cell_mutant_is_refused(self, monkeypatch, dlo, dhi, what):
        # Shift 1 moves one block's span along every tiled axis by a
        # cell: a gap or an overlap with its neighbour at update 2 only.
        monkeypatch.setattr(blocks, "axis_row", moved_span_rows(1, 1, dlo, dhi))
        report = analyze_schedule(small_block_config(), (32, 32, 32))
        assert [(f.checker, f.location) for f in report.errors] == [
            ("coverage", "update 2")], what
        with pytest.raises(StaticAnalysisError, match="coverage"):
            assert_legal(small_block_config(), (32, 32, 32))

    def test_no_budget_skips_a_large_traversal(self):
        # 64^3 in (2, 8, 8) blocks: 1 210 traversal blocks, past the old
        # 512-block budget; coverage is decided, not skipped.
        report = analyze_schedule(small_block_config(block_size=(2, 8, 8)),
                                  (64, 64, 64))
        assert report.ok
        assert not [n for n in report.notes if "coverage" in n]


# -- the verdict memo ------------------------------------------------------------


class TestVerdictMemo:
    def test_repeated_threads_solves_analyze_once(self, analyses):
        grid = Grid3D((12, 10, 10))
        field = random_field(grid.shape, np.random.default_rng(5))
        cfg = small_block_config(block_size=(4, 64, 64))
        want = reference_sweeps(grid, field, cfg.total_updates).tobytes()
        for _ in range(3):
            res = repro.solve(grid, field, cfg, backend="threads")
            assert res.field.tobytes() == want
        assert len(analyses) == 1

    def test_a_config_changed_after_a_certified_solve_is_refused(self, analyses):
        grid = Grid3D((16, 12, 12))
        field = random_field(grid.shape, np.random.default_rng(6))
        cfg = small_block_config(block_size=(3, 64, 64))
        repro.solve(grid, field, cfg, backend="threads")
        # RelaxedSpec refuses d_l = 0; forcing it after construction is
        # a new key, so the memo cannot hand back the old certificate.
        object.__setattr__(cfg.sync, "d_l", 0)
        with pytest.raises(StaticAnalysisError) as exc:
            repro.solve(grid, field, cfg, backend="threads")
        assert exc.value.report.errors[0].checker == "raw-hazard"
        assert len(analyses) == 2

    def test_halo_topology_and_storage_are_part_of_the_key(self, analyses,
                                                           oracle_engine):
        cfg = small_block_config()
        shape = (32, 32, 32)
        variants = [
            lambda: assert_legal(cfg, shape),
            lambda: assert_legal(cfg, shape, halo=4),
            lambda: assert_legal(cfg, shape, (1, 1, 2)),
            lambda: assert_legal(replace(cfg, storage="compressed"), shape),
        ]
        for certify in variants:
            certify()
        assert len(analyses) == 4
        for certify in variants:
            certify()
        assert len(analyses) == 4
        # The engine is not part of the schedule: same verdict, no run.
        oracle_engine("memo-oracle")
        assert_legal(replace(cfg, engine="memo-oracle"), shape)
        assert len(analyses) == 4

    def test_a_refusal_raises_the_same_text_every_call(self, analyses):
        bad = ScheduleSpec(teams=1, threads_per_team=2, updates_per_thread=1,
                           block_size=(4, 64, 64), sync_kind="relaxed",
                           d_l=0, d_u=2)
        errors = []
        for _ in range(3):
            with pytest.raises(StaticAnalysisError) as exc:
                assert_legal(bad, (16, 16, 16))
            errors.append(exc.value)
        assert len(analyses) == 1
        assert len({str(e) for e in errors}) == 1
        assert len({id(e.report) for e in errors}) == 3

    def test_callers_never_share_the_cached_report(self):
        cfg = small_block_config()
        first = assert_legal(cfg, (32, 32, 32))
        text = first.describe(verbose=True)
        first.add("coverage", "error", "here", "tampered")
        first.notes.clear()
        second = assert_legal(cfg, (32, 32, 32))
        assert second is not first
        assert second.ok
        assert second.describe(verbose=True) == text


# -- the tripwire ------------------------------------------------------------------


def _grid_calls(stats, module):
    return {func: ncalls
            for (path, _line, func), (_cc, ncalls, *_rest) in stats.stats.items()
            if path.replace("\\", "/").endswith("repro/grid/" + module)}


class TestCertificationTripwire:
    def test_a_small_block_certificate_does_no_pairwise_box_algebra(self):
        # 64^3 in (4, 16, 16) blocks: 425 traversal blocks.  The pairwise
        # partition check made about 306 k Box.intersect calls and
        # 4.96 M calls in all; the per-axis rows leave only the witness
        # cells of the hazard table (104 intersects, 9.9 k calls).
        prof = cProfile.Profile()
        prof.runcall(assert_legal, small_block_config(), (64, 64, 64))
        stats = pstats.Stats(prof)
        region = _grid_calls(stats, "region.py")
        assert region.get("intersect", 0) <= 200, region
        assert sum(region.values()) <= 2_500, region
        assert stats.total_calls <= 20_000, stats.total_calls
        # Coverage reads one row per axis and level: 4 levels.
        assert _grid_calls(stats, "blocks.py")["level_rows"] == 4
        # A memo hit runs nothing of the analyzer.
        prof = cProfile.Profile()
        prof.runcall(assert_legal, small_block_config(), (64, 64, 64))
        assert not _grid_calls(pstats.Stats(prof), "region.py")
