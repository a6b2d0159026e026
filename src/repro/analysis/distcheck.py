"""Distributed legality: halo depth, trapezoids, exchange-plan geometry.

The hybrid scheme (Sect. 2) is correct only under three geometric
invariants, all checkable without running a rank:

* **Halo depth** — a rank runs the full ``h = n·t·T``-update pass
  between exchanges, and update ``u`` covers the core grown by
  ``h - u`` layers; its radius-1 stencil reads reach one layer further,
  so the stored box (core grown by the exchanged halo) must contain
  ``core.grow(h)``: the halo must be at least ``h``.
* **Trapezoid consistency** — every update's active region and its
  reads must stay inside the stored box, matching the shrinking
  trapezoid the solver drives (``active(u) = core.grow(h - u)``).
* **Exchange-plan soundness** — the 3-phase ghost-cell-expansion plan
  of :func:`repro.dist.exchange.exchange_plan` must be symmetric (a
  rank's recv box is exactly its peer's send box) and *causal*: every
  cell a rank sends must be one it owns (core) or one it received in
  an **earlier** phase — the "data received in the previous step is
  included in the messages of the following exchange steps" rule that
  makes edge/corner data ride along in six messages.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..grid.region import Box
from .findings import Report
from .model import ScheduleSpec

__all__ = ["check_distributed", "uncovered_cells"]

Coord = Tuple[int, int, int]


def uncovered_cells(target: Box, covers: List[Box]) -> int:
    """Cells of ``target`` not covered by any box in ``covers``.

    Coordinate compression: the cover boxes cut ``target`` into at most
    ``(2n+1)^3`` sub-boxes, each either fully covered by some box or
    fully uncovered — exact and cheap for the handfuls of boxes an
    exchange plan produces.
    """
    if target.is_empty:
        return 0
    cuts = []
    for d in range(3):
        pts = {target.lo[d], target.hi[d]}
        for b in covers:
            pts.add(min(max(b.lo[d], target.lo[d]), target.hi[d]))
            pts.add(min(max(b.hi[d], target.lo[d]), target.hi[d]))
        cuts.append(sorted(pts))
    missing = 0
    for z0, z1 in zip(cuts[0], cuts[0][1:]):
        for y0, y1 in zip(cuts[1], cuts[1][1:]):
            for x0, x1 in zip(cuts[2], cuts[2][1:]):
                sub = Box((z0, y0, x0), (z1, y1, x1))
                if sub.is_empty:
                    continue
                if not any(b.contains_box(sub) for b in covers):
                    missing += sub.ncells
    return missing


def check_distributed(spec: ScheduleSpec, shape: Coord, topology: Coord,
                      halo: int, report: Report) -> None:
    """Run every distributed invariant; findings go to ``report``."""
    from ..dist.decomp import CartesianDecomposition
    from ..dist.exchange import exchange_plan

    h = spec.updates_per_pass
    if spec.storage != "twogrid":
        report.add(
            "dist-storage", "error", f"storage {spec.storage!r}",
            "the distributed rail requires the two-grid layout: ghost "
            "injections jump cells forward in time, which the compressed "
            "grid's shifted positions cannot absorb",
        )
    if halo < h:
        report.add(
            "halo-depth", "error", f"halo {halo} < n*t*T = {h}",
            f"a superstep advances every core cell by {h} levels but "
            f"only {halo} ghost layers are exchanged",
            f"update 1 covers core.grow({h - 1}) and reads "
            f"core.grow({h}); the stored box only "
            f"spans core.grow({halo}) — the trapezoid base is starved",
        )
    elif halo > h:
        report.add(
            "halo-depth", "warning", f"halo {halo} > n*t*T = {h}",
            f"{halo - h} exchanged layer(s) per superstep are never "
            "consumed by the trapezoid updates (wasted bandwidth)",
        )
    try:
        decomp = CartesianDecomposition(shape, topology, max(1, halo))
    except ValueError as exc:
        report.add("dist-geometry", "error",
                   f"{shape} / topology {topology}", str(exc))
        return

    plans: Dict[int, List] = {}
    for rank in range(decomp.n_ranks):
        geo = decomp.geometry(rank)
        try:
            plans[rank] = exchange_plan(decomp, geo)
        except ValueError as exc:
            report.add("exchange-plan", "error", f"rank {rank}", str(exc))
            return

    domain = decomp.domain
    worst = min(halo, h)
    for rank in range(decomp.n_ranks):
        geo = decomp.geometry(rank)
        # Trapezoid bounds: active regions and their reads fit the
        # stored box for every update of the pass.
        for u in range(1, h + 1):
            active = geo.core.grow(h - u).intersect(domain)
            reads = active.grow(1).intersect(domain)
            if not geo.stored.contains_box(reads):
                corner = tuple(
                    min(max(reads.lo[d], geo.stored.lo[d] - 1),
                        reads.hi[d] - 1) if reads.lo[d] < geo.stored.lo[d]
                    else reads.hi[d] - 1
                    for d in range(3))
                report.add(
                    "trapezoid", "error", f"rank {rank}, update {u}",
                    f"active region {active} reads {reads}, which "
                    f"escapes the stored box {geo.stored}",
                    f"e.g. cell {corner} is read but never stored on "
                    f"this rank (halo {halo}, needs {h - u + 1} "
                    f"layers at this update)",
                )
                break
        # Exchange symmetry and causality.
        received: List[Box] = []
        for (dim, side, peer, send, recv) in plans[rank]:
            mirrored = [e for e in plans[peer]
                        if e[0] == dim and e[1] == -side and e[2] == rank]
            if not mirrored or mirrored[0][3] != recv:
                got = mirrored[0][3] if mirrored else None
                report.add(
                    "exchange-plan", "error",
                    f"rank {rank} <- rank {peer}, dim {dim}",
                    "recv box does not match the peer's send box",
                    f"recv {recv} vs peer send {got}",
                )
            if not geo.stored.contains_box(recv):
                report.add(
                    "exchange-plan", "error",
                    f"rank {rank}, dim {dim}, side {side:+d}",
                    f"recv box {recv} is not inside the stored box "
                    f"{geo.stored}",
                )
            missing = uncovered_cells(send, [geo.core] + received)
            if missing:
                report.add(
                    "exchange-plan", "error",
                    f"rank {rank} -> rank {peer}, dim {dim}, "
                    f"side {side:+d}",
                    f"send box {send} contains {missing} cell(s) this "
                    "rank neither owns nor has received in an earlier "
                    "phase (ghost-cell-expansion causality broken)",
                )
            received.append(recv)
    report.note(
        f"distributed geometry verified on {decomp.n_ranks} rank(s): "
        f"halo {halo} vs pass depth {h}, trapezoids for updates 1..{worst}, "
        f"{sum(len(p) for p in plans.values())} exchange messages "
        "symmetric and causal")
