"""Paper-shape bands over the ``figure`` scenarios of :mod:`repro.perf`.

Every band reads the payload of ``get_scenario(f"{base}@{scale}").run_once()``
(the bare ``base`` for the scale-independent Figs. 5 and 6),
the data ``python -m repro.perf run`` records and ``perf report`` prints.
The ``quick`` bands run in tier-1.  The ``paper`` ones need the
size-stable (>= 250^3) DES rates and carry the ``paper`` marker, which
``pyproject.toml`` deselects; run them with
``PYTHONPATH=src python -m pytest -m paper tests/test_figures.py``.

Each class names the scenario base it checks, and the tripwire at the
end holds those names to the registered figure scenarios.  Bands that
``tests/test_models.py`` already holds (Eq. 2's P0, the ``16T/(7+4T)``
closed form, Fig. 5's large-L, small-L and mid-range ordering) are not
repeated.
"""

from __future__ import annotations

import inspect
import sys
from functools import lru_cache
from typing import Optional

import pytest

from repro.machine import nehalem_ep
from repro.models import PipelineModel
from repro.perf import all_scenarios, get_scenario

paper = pytest.mark.paper
SCALES = ["quick", pytest.param("paper", marks=paper)]


@lru_cache(maxsize=None)
def payload(base: str, scale: Optional[str] = None):
    """The scenario's payload, computed once per test run (read only)."""
    return get_scenario(base if scale is None else f"{base}@{scale}").run_once()


class TestFig3Left:
    """E1: pipelining wins 50–60 %, relaxed sync beats the barrier (most
    on two sockets); the Eq. 5 marker matches at T=1, overshoots at T=2."""

    base = "fig3_left"

    @pytest.mark.parametrize("scale", SCALES)
    def test_loose_pipeline_wins_and_T2_model_overshoots(self, scale):
        socket = payload(self.base, scale)["socket"]
        best = socket["pipeline relaxed d_u=4"]
        assert best > 1.2 * socket["standard Jacobi"]
        assert best > socket["pipeline relaxed d_u=1 (lockstep)"]
        assert socket["model T=2"] > 1.15 * best

    @paper
    def test_paper_speedups_and_T1_marker(self):
        data = payload(self.base, "paper")
        socket, node = data["socket"], data["node"]
        best_s = socket["pipeline relaxed d_u=4"]
        best_n = node["pipeline relaxed d_u=4"]
        assert 1.35 <= best_s / socket["standard Jacobi"] <= 1.8
        assert 1.30 <= best_n / node["standard Jacobi"] <= 1.8
        # Relaxed sync pays off most on two sockets (vs barrier).
        assert best_n / node["pipeline w/ barrier"] \
            >= 0.95 * best_s / socket["pipeline w/ barrier"]
        sim = socket["pipeline relaxed T=1"]
        assert abs(socket["model T=1"] - sim) / sim < 0.15


class TestFig3Right:
    """E2: lockstep (looseness 0) far below the plateau (paper: ~80 %),
    and the curve saturates."""

    base = "fig3_right"

    @pytest.mark.parametrize("scale", SCALES)
    @pytest.mark.parametrize("label", ["socket", "node"])
    def test_loose_beats_lockstep_and_saturates(self, scale, label):
        series = dict(payload(self.base, scale)[label])
        plateau = max(v for loose, v in series.items() if loose >= 1)
        assert plateau / series[0] > 1.4, (series[0], plateau)
        assert abs(series[5] - series[2]) / plateau < 0.15


class TestModelValidation:
    """E3/E6: Eq. 5 matches the simulation at T=1, overpredicts at
    T >= 2; the speedup ceiling Mc/Ms is about 4."""

    base = "model_validation"

    @pytest.mark.parametrize("scale,tolerance", [
        ("quick", 0.20), pytest.param("paper", 0.15, marks=paper)])
    def test_model_matches_at_T1_and_fails_above(self, scale, tolerance):
        by_T = {int(r["T"]): r for r in payload(self.base, scale)}
        sim = by_T[1]["sim_mlups"]
        assert abs(by_T[1]["model_mlups"] - sim) / sim < tolerance
        assert by_T[2]["model_mlups"] > 1.2 * by_T[2]["sim_mlups"]
        assert by_T[4]["model_mlups"] > 1.3 * by_T[4]["sim_mlups"]

    def test_speedup_ceiling(self):
        # Large-t*T limit of Eq. 5: Mc / Ms.
        pm = PipelineModel.from_machine(nehalem_ep())
        limit = pm.mc / pm.ms
        assert 3.5 < limit < 5.0
        assert round(limit, 2) == 4.32  # EXPERIMENTS.md anchor table


class TestFig5:
    """E4 (scale-free): mid-range degradation for wide halos and a
    comm-limited inset below L ~ 100."""

    base = "fig5"

    def test_advantage_bands(self):
        adv = {h: dict(s) for h, s in payload(self.base)["advantage"].items()}
        # Full trapezoid accounting keeps a residual work overhead for
        # very wide halos that the paper's simplified model neglects.
        assert 0.90 < adv[4][320] < 1.05
        for h in adv:
            assert 0.70 < adv[h][320] < 1.1, (h, adv[h][320])
        assert adv[16][50] < 0.95  # relevant for h >= 16
        assert adv[2][80] > 0.9    # h=2 barely hurts anywhere

    def test_efficiency_inset(self):
        eff = {h: dict(s) for h, s in payload(self.base)["efficiency"].items()}
        assert eff[2][20] < 0.5
        assert eff[2][320] > 0.8


class TestFig6:
    """E5 (scale-free): standard 1PPN clearly inferior; strong scaling
    loses the pipelined benefit at 64 nodes, weak scaling keeps most of
    it, and 2PPN beats 1PPN."""

    base = "fig6"

    def test_strong_scaling(self):
        strong = {k: dict(v) for k, v in payload(self.base)["strong"].items()}
        assert strong["standard 1PPN"][64] < 0.65 * strong["standard 8PPN"][64]
        assert strong["pipelined 2PPN"][64] < 1.15 * strong["standard 8PPN"][64]

    def test_weak_scaling(self):
        weak = {k: dict(v) for k, v in payload(self.base)["weak"].items()}
        single = weak["pipelined 2PPN"][1] / weak["standard 8PPN"][1]
        assert single > 1.3
        kept = (weak["pipelined 2PPN"][64] / weak["standard 8PPN"][64] - 1) \
            / (single - 1)
        assert kept > 0.6, f"only {kept:.0%} of the pipelined speedup kept"
        assert weak["pipelined 2PPN"][64] > weak["pipelined 1PPN"][64]


class TestAblationTeamDelay:
    """E7: d_t has only a very slight impact (the small quick problem
    exaggerates the relative swing)."""

    base = "ablation_team_delay"

    @pytest.mark.parametrize("scale,tolerance", [
        ("quick", 0.35), pytest.param("paper", 0.10, marks=paper)])
    def test_slight_impact(self, scale, tolerance):
        vals = dict(payload(self.base, scale))
        for dt, v in vals.items():
            assert abs(v - vals[0]) / vals[0] < tolerance, (dt, v)


class TestAblationBlockSize:
    """E8: b_x = 120, the paper's optimum, is within 10 % of the best."""

    base = "ablation_block_size"

    @pytest.mark.parametrize("scale", SCALES)
    def test_paper_optimum_near_best(self, scale):
        perf = {bx: v for bx, v, _ in payload(self.base, scale)}
        assert perf[120] > 0.9 * max(perf.values())


class TestAblationNtStores:
    """E9: NT stores are counterproductive under temporal blocking; the
    compressed grid is at least as good as two-grid."""

    base = "ablation_nt_stores"

    @pytest.mark.parametrize("scale", SCALES)
    def test_nt_stores_and_storage(self, scale):
        vals = payload(self.base, scale)
        assert vals["two-grid + NT stores"] < 0.9 * vals["two-grid"]
        assert vals["compressed"] >= 0.95 * vals["two-grid"]


@paper
def test_paper_anchor_values():
    """EXPERIMENTS.md's "Paper vs simulated anchor values" table, to the
    precision it prints (P0 and Mc/Ms are held above and in TestEq2)."""
    left = payload("fig3_left", "paper")
    assert [round(left[g]["pipeline relaxed d_u=4"]
                  / left[g]["standard Jacobi"], 2)
            for g in ("socket", "node")] == [1.58, 1.49]
    by_T = {int(r["T"]): r for r in payload("model_validation", "paper")}
    model_sim = [(round(by_T[T]["model_mlups"]), round(by_T[T]["sim_mlups"]))
                 for T in (1, 2)]
    assert model_sim == [(1636, 1633), (2400, 1640)]
    assert round(100 * (by_T[2]["model_mlups"] / by_T[2]["sim_mlups"] - 1)) \
        == 46
    socket = dict(payload("fig3_right", "paper")["socket"])
    assert round(100 * (socket[3] / socket[0] - 1)) == 83  # looseness 3


def test_every_figure_scenario_has_bands():
    registered = {sc.name.split("@")[0] for sc in all_scenarios()
                  if sc.kind == "figure"}
    checked = {cls.base for _, cls in inspect.getmembers(
        sys.modules[__name__], inspect.isclass) if hasattr(cls, "base")}
    assert checked == registered
