"""Closed-form legality of the counter protocol against the lead table.

:mod:`repro.analysis.hazards` reduces a schedule to lead constraints:
stage ``s`` may start block ``i`` only once an earlier stage ``s'`` has
completed block ``i + Δ``, i.e. with a counter gap ``c_{s'} - c_s`` of
at least the *lead* ``Δ + 1``.  :func:`_analytic_check` decides whether
the synchronisation policy lets a stage start short of a lead (a race)
or freezes with work left (a deadlock).  The policy is the executor's
own, built from the spec's raw windows (:meth:`ScheduleSpec.policy`),
and both answers are closed forms: no counter state is enumerated.

Every error carries an interleaving: the same ``rear_first`` drive of
a real :class:`~repro.core.sync.CounterBoard`, stopped at the violating
start or the frozen state, with the policy's ``blockers`` as the reason.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

from ..core.sync import CounterBoard, RelaxedPolicy, SyncPolicy
from .findings import Report, StaticAnalysisError
from .hazards import (
    Constraint,
    ConstraintTable,
    build_constraints,
    check_coverage_static,
    decomposition_for,
)
from .model import ScheduleSpec

__all__ = ["analyze_schedule", "assert_legal"]


# -- the closed form ----------------------------------------------------------


def _min_gap(policy: SyncPolicy, other: int, stage: int, block: int) -> int:
    """Least ``c_other - c_stage`` the policy permits as ``stage`` starts
    ``block`` (the bound of :func:`_analytic_check`, edges included)."""
    if not isinstance(policy, RelaxedPolicy):
        return stage - other  # barrier rounds
    d_l = policy.d_l_eff
    c = max(0, block + d_l[stage])
    for k in range(stage - 1, other, -1):
        c = max(0, c + d_l[k] - 1) if c else 0
    return c - block


def _races(policy: SyncPolicy, table: ConstraintTable,
           n_blocks: int) -> List[Tuple[Constraint, int, int]]:
    """Each constraint some permitted start violates, with the block
    window ``[lo, hi]`` where it is the one that binds."""
    out = []
    for (s, other), by_lead in sorted(table.by_pair.items()):
        # From this block on every link of the chain has started, and
        # the minimum gap is the plain sum.
        settled = (sum(abs(d) + 1 for d in policy.d_l_eff[other + 1:s + 1]) + 1
                   if isinstance(policy, RelaxedPolicy) else 0)
        stronger: Optional[int] = None
        for lead in sorted(by_lead, reverse=True):
            delta = lead - 1
            lo = max(0, -delta, 0 if stronger is None else n_blocks - stronger)
            hi = n_blocks - 1 - max(0, delta)
            stronger = delta
            if any(_min_gap(policy, other, s, i) < lead
                   for i in range(lo, min(hi, max(lo, settled)) + 1)):
                out.append((by_lead[lead], lo, hi))
    return out


def _format_path(path: Sequence[Tuple[int, int]], limit: int = 28) -> str:
    """Compact ``stage:block`` interleaving rendering."""
    steps = [f"t{s}:b{b}" for s, b in path]
    if len(steps) > limit:
        head, tail = steps[: limit // 2], steps[-limit // 2:]
        steps = head + [f"... ({len(path) - limit} steps) ..."] + tail
    return " ".join(steps) if steps else "(initial state)"


def _witness(spec: ScheduleSpec, policy: SyncPolicy, n_blocks: int,
             races: List[Tuple[Constraint, int, int]], frozen: bool,
             report: Report) -> None:
    """Drive the policy ``rear_first`` on a real board; report each
    violating start and the frozen state with the interleaving so far."""
    board = CounterBoard(policy, spec.n_stages, n_blocks, record_log=True)
    counters, log = board.counters, board.log
    assert log is not None
    pending = list(races)
    while pending or frozen:
        ready = board.poll()
        if not ready:
            if not board.done:
                report.add(
                    "deadlock", "error", f"counters {tuple(counters)}",
                    "the pipeline reaches a state where no unfinished "
                    "stage is ready and no counter can ever change",
                    f"interleaving: {_format_path(log)}\n"
                    + board.describe_wait(), tuple(log))
            break
        s = max(ready)
        i = counters[s]
        for item in [r for r in pending if r[0].stage == s]:
            cons, lo, hi = item
            gap = counters[cons.other] - i
            if not (lo <= i <= hi and gap < cons.lead):
                continue
            pending.remove(item)
            report.add(
                f"{cons.kind}-hazard", "error",
                f"stage {s}, block {i}, update {cons.u}",
                f"the window permits stage {s} to start block {i} while "
                f"stage {cons.other} has completed only "
                f"{counters[cons.other]} blocks: its op (block "
                f"{i + cons.delta}, update {cons.w}) is pending and "
                f"conflicts ({cons.kind.upper()})",
                f"witness interleaving: {_format_path(log)}\n"
                f"then stage {s} starts block {i}; required lead "
                f"c_{cons.other} - c_{s} >= {cons.lead}, permitted gap "
                f"{gap}; {cons.cells()}", tuple(log))
        board.publish(s)
    if pending:  # the drive reaches every minimum gap: never certify past it
        raise AssertionError(f"no rear_first start reached {pending}")


def _analytic_check(spec: ScheduleSpec, table: ConstraintTable,
                    n_blocks: int, report: Report) -> None:
    """Races and deadlocks of the counter protocol, in closed form.

    **Races.**  Let ``d_l(k)`` be stage ``k``'s lower bound, team delay
    included (:func:`~repro.core.sync.effective_windows`).  When ``s``
    starts a block, ``c_{s-1} - c_s >= d_l(s)``: its own window (a finished
    predecessor owes no lead).  Each started link ``k`` ahead saw
    ``c_{k-1} - c_k >= d_l(k)`` at its last start, one block ago, and
    counters only grow, so ``c_{k-1} - c_k >= d_l(k) - 1`` now.  Over a
    chain of ``k = s - s'`` links, ``c_{s'} - c_s >= Σ d_l - (k - 1)``.
    The bound is met: in the executor's ``rear_first`` order a stage moves
    only when no stage behind it can, and its move opens at most its
    successor's window, which moves next.  So every started link rests at
    ``d_l(k) - 1``, and ``s`` starts every block with the chain at the
    bound: it is the minimum gap, and a pair races iff it is below the
    lead.  At the edges, :func:`_min_gap` also counts links not yet started
    (owing only ``c_{k-1} >= 0``, which matters behind a ``d_l <= 0``
    window), and :func:`_races` owes a lead only to a block that exists, so
    a pair's weaker leads bind at its last blocks.  Under the barrier a
    stage starts with every predecessor at its round: the gap is ``s - s'``.

    **Deadlocks.**  Every adjacent window has the same slack
    ``d_u + 1 - d_l``: the team delay is added on both sides of a team
    boundary.  With slack ``>= 0``, the frontmost unfinished stage can only
    be held by its successor's gap; that gap exceeds ``d_u >= 0`` (a
    structural rule), so it meets the successor's ``d_l``, and so on to the
    rear stage, which has no upper window: some stage is always ready.
    With slack ``< 0`` a predecessor stops ``d_u + 1`` blocks ahead, short
    of ``d_l``, so the stages run one at a time, each freed by the drain
    waiver, and none races.  Stage ``s < P - 1`` stops for good after
    ``d_u(s) + 1`` blocks, so the pipeline freezes iff that is short of the
    traversal.  The barrier never freezes.
    """
    P = spec.n_stages
    if P == 1:
        report.note("single pipeline stage: program order is total, no "
                    "counter races possible")
        return
    policy = spec.policy()
    races: List[Tuple[Constraint, int, int]] = []
    frozen = False
    if isinstance(policy, RelaxedPolicy) and any(
            policy.d_u_eff[s] + 1 < policy.d_l_eff[s + 1] for s in range(P - 1)):
        # An empty window runs the stages one after another: no race, and
        # a freeze unless every stage drains within its d_u(s) + 1 blocks.
        frozen = any(d_u + 1 < n_blocks for d_u in policy.d_u_eff[:-1])
    else:
        races = _races(policy, table, n_blocks)
    if races or frozen:
        _witness(spec, policy, n_blocks, races, frozen, report)
    mode = ("relaxed counters" if isinstance(policy, RelaxedPolicy)
            else "barrier rounds")
    report.note(
        f"closed form ({mode}): {len(table.by_pair)} stage pair(s) checked, "
        "minimum reachable counter gap against required lead, and the "
        "windows' slack against freezing")


# -- top-level entry points --------------------------------------------------


def _local_shape(shape: Tuple[int, int, int],
                 topology: Tuple[int, int, int],
                 halo: int) -> Tuple[int, int, int]:
    """The largest per-rank stored-box shape, or the global shape."""
    if tuple(topology) == (1, 1, 1):
        return shape
    from ..dist.decomp import CartesianDecomposition

    try:
        decomp = CartesianDecomposition(shape, topology, max(1, halo))
    except ValueError:
        return shape
    best = shape
    best_n = -1
    for rank in range(decomp.n_ranks):
        stored = decomp.geometry(rank).stored
        if stored.ncells > best_n:
            best_n = stored.ncells
            best = stored.shape
    return best


def analyze_schedule(config, shape: Sequence[int] = (32, 32, 32),
                     topology: Sequence[int] = (1, 1, 1), *,
                     halo: Optional[int] = None) -> Report:
    """Statically verify a schedule on a domain; never executes anything.

    Parameters
    ----------
    config:
        A :class:`~repro.core.parameters.PipelineConfig` or a raw
        :class:`~repro.analysis.model.ScheduleSpec` (which may encode
        schedules the config constructor would reject).
    shape:
        Global interior extents the schedule would run on.
    topology:
        Process grid; anything but ``(1, 1, 1)`` adds the distributed
        legality checks and analyzes the per-rank trapezoid geometry.
    halo:
        Ghost-layer width for the distributed checks; defaults to the
        schedule's ``n*t*T`` (the paper's choice).

    Returns
    -------
    Report
        ``report.ok`` is the certification verdict; error findings
        carry concrete witnesses (interleavings, cells, ranks).
    """
    if isinstance(config, ScheduleSpec):
        spec = config
    else:
        spec = ScheduleSpec.from_config(config)
    shape_t: Tuple[int, int, int] = tuple(int(s) for s in shape)  # type: ignore[assignment]
    topo: Tuple[int, int, int] = tuple(int(p) for p in topology)  # type: ignore[assignment]
    where = f"{spec.describe()} on {shape_t}"
    if topo != (1, 1, 1):
        where += f" x topology {topo}"
    report = Report(subject=where)

    problems = spec.structural_problems()
    if problems:
        for p in problems:
            report.add("config-error", "error", "schedule parameters", p)
        return report

    h = spec.updates_per_pass
    eff_halo = h if halo is None else int(halo)
    if topo != (1, 1, 1):
        from .distcheck import check_distributed

        check_distributed(spec, shape_t, topo, eff_halo, report)
    local = _local_shape(shape_t, topo, eff_halo)

    decomp = decomposition_for(spec, local)
    if decomp is None:
        report.add("config-error", "error", "block geometry",
                   f"cannot build a block decomposition of {local} with "
                   f"blocks {spec.block_size} and max shift {spec.max_shift}")
        return report
    if spec.storage == "compressed" and not decomp.tiled_dims:
        report.add("config-error", "error", "block geometry",
                   f"compressed storage needs a tiled axis to shift along: "
                   f"blocks {spec.block_size} cover all of {local}")
        return report

    table = build_constraints(spec, decomp, report)
    check_coverage_static(spec, decomp, report)
    _analytic_check(spec, table, decomp.n_traversal_blocks, report)
    need = table.required_d_l()
    report.note(f"binding adjacent-stage lead: {need} block(s) "
                f"(the paper's d_l >= 1 bound{'' if need <= 1 else ' is insufficient here'})")
    return report


#: Verdicts the memo of :func:`assert_legal` keeps (least recent out first).
VERDICT_MEMO_SIZE = 256


@lru_cache(maxsize=VERDICT_MEMO_SIZE)
def _verdict(spec: ScheduleSpec, shape: Tuple[int, ...],
             topology: Tuple[int, ...], halo: Optional[int]) -> Report:
    """The analyzer's report, memoised by value; never handed out."""
    return analyze_schedule(spec, shape, topology, halo=halo)


def assert_legal(config, shape: Sequence[int],
                 topology: Sequence[int] = (1, 1, 1), *,
                 halo: Optional[int] = None) -> Report:
    """``analyze_schedule`` that raises :class:`StaticAnalysisError`.

    Called by ``repro.solve`` (``validate=True``), the service's procmpi
    path and the threads executor.  Memoised process-wide by value
    (spec, shape, topology, halo): a repeated geometry runs no analysis,
    a config changed after construction is analyzed again, every call
    gets a fresh report, and ``assert_legal.cache_clear()`` empties the
    memo.
    """
    spec = (config if isinstance(config, ScheduleSpec)
            else ScheduleSpec.from_config(config))
    cached = _verdict(spec, tuple(map(int, shape)), tuple(map(int, topology)),
                      halo)
    report = Report(cached.subject, list(cached.findings), list(cached.notes))
    if not report.ok:
        raise StaticAnalysisError(report)
    return report


assert_legal.cache_clear = _verdict.cache_clear  # type: ignore[attr-defined]
