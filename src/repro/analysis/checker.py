"""Happens-before checking over every permitted counter assignment.

:mod:`repro.analysis.hazards` reduces the schedule to lead constraints
"stage ``s`` may start block ``i`` only if stage ``s'`` has completed
block ``i + Δ``".  This module checks those constraints against the
*synchronisation semantics* — the volatile-counter protocol of Eq. 3
(or the global barrier) — by exhaustively exploring the counter
automaton: states are per-stage progress counters, transitions are
"a ready stage completes its next block", readiness is exactly the
predicate of :class:`repro.core.sync.RelaxedPolicy` /
:class:`~repro.core.sync.BarrierPolicy` (reimplemented over the
unvalidated :class:`~repro.analysis.model.ScheduleSpec`, so illegal
windows are explorable instead of unconstructible).

Every reachable state where a *permitted* move violates a lead
constraint is a data race, reported with the concrete interleaving
that reaches it; every reachable state with unfinished stages and no
ready stage is a deadlock, likewise with its path.  The exploration is
exact: the automaton is finite because the window bounds every
adjacent-stage gap, and a traversal horizon of a few windows beyond
the pipeline depth exhibits every gap pattern longer traversals can
reach (the policy is translation-invariant in the interior; the drain
waiver only *loosens* constraints near the end).

When the window product makes exhaustive exploration too large (deep
pipelines with loose windows), the checker falls back to the analytic
bound — the minimum reachable gap between two stages under the policy
— and says so in the report notes.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from .findings import Report, StaticAnalysisError
from .hazards import (
    ConstraintTable,
    build_constraints,
    check_coverage_static,
    decomposition_for,
)
from .model import ScheduleSpec

__all__ = ["analyze_schedule", "assert_legal", "quick_check"]

State = Tuple[int, ...]


# -- synchronisation semantics over raw specs --------------------------------


class _Readiness:
    """Policy predicate mirroring :mod:`repro.core.sync`, unvalidated."""

    def __init__(self, spec: ScheduleSpec) -> None:
        self.spec = spec
        self.n = spec.n_stages
        self.barrier = spec.sync_kind == "barrier"
        self.d_l_eff, self.d_u_eff = spec.effective_windows()

    def ready(self, stage: int, c: Sequence[int],
              finished: Sequence[bool]) -> bool:
        if self.barrier:
            rounds = [c[s] + s for s in range(self.n) if not finished[s]]
            return c[stage] + stage == min(rounds)
        if stage > 0 and not finished[stage - 1]:
            if c[stage - 1] - c[stage] < self.d_l_eff[stage]:
                return False
        if stage < self.n - 1:
            if c[stage] - c[stage + 1] > self.d_u_eff[stage]:
                return False
        return True

    def why_blocked(self, stage: int, c: Sequence[int],
                    finished: Sequence[bool]) -> str:
        """Human-readable blocking reason for deadlock witnesses."""
        if self.barrier:
            return (f"stage {stage} at round {c[stage] + stage} waits for "
                    "the minimum outstanding round")
        parts = []
        if stage > 0 and not finished[stage - 1]:
            gap = c[stage - 1] - c[stage]
            if gap < self.d_l_eff[stage]:
                parts.append(f"needs c_{stage - 1} - c_{stage} >= "
                             f"{self.d_l_eff[stage]}, has {gap}")
        if stage < self.n - 1:
            gap = c[stage] - c[stage + 1]
            if gap > self.d_u_eff[stage]:
                parts.append(f"needs c_{stage} - c_{stage + 1} <= "
                             f"{self.d_u_eff[stage]}, has {gap}")
        return f"stage {stage}: " + ("; ".join(parts) or "ready")


def _format_path(path: List[Tuple[int, int]], limit: int = 28) -> str:
    """Compact ``stage:block`` interleaving rendering."""
    steps = [f"t{s}:b{b}" for s, b in path]
    if len(steps) > limit:
        head, tail = steps[: limit // 2], steps[-limit // 2:]
        steps = head + [f"... ({len(path) - limit} steps) ..."] + tail
    return " ".join(steps) if steps else "(initial state)"


def _reconstruct(parent: Dict[State, Optional[Tuple[State, int]]],
                 state: State) -> List[Tuple[int, int]]:
    """Path of ``(stage, block)`` moves from the initial state."""
    path: List[Tuple[int, int]] = []
    cur: Optional[State] = state
    while cur is not None:
        link = parent[cur]
        if link is None:
            break
        prev, stage = link
        path.append((stage, prev[stage]))
        cur = prev
    path.reverse()
    return path


def explore_counters(spec: ScheduleSpec, table: ConstraintTable,
                     n_blocks: int, report: Report,
                     max_states: int = 200_000) -> None:
    """Exhaustive (or analytic-fallback) check of the counter automaton."""
    policy = _Readiness(spec)
    P = spec.n_stages
    if P == 1:
        report.note("single pipeline stage: program order is total, no "
                    "counter races possible")
        return
    max_lead = max((c.lead for c in table.lead.values()), default=1)
    horizon = min(n_blocks,
                  max(8, max_lead + max(policy.d_u_eff, default=1) + P + 2))
    if horizon < n_blocks:
        report.note(
            f"traversal horizon capped at {horizon} of {n_blocks} blocks "
            "(gap patterns are translation-invariant in the interior)")
    # Descending-lead constraint lists per stage pair: the first
    # constraint whose conflicting block exists is the binding one.
    per_pair: Dict[Tuple[int, int], List] = {}
    for c in table.constraints:
        per_pair.setdefault((c.stage, c.other), []).append(c)
    for lst in per_pair.values():
        lst.sort(key=lambda c: -c.lead)
        # One entry per distinct lead is enough.
        seen, uniq = set(), []
        for c in lst:
            if c.lead not in seen:
                seen.add(c.lead)
                uniq.append(c)
        lst[:] = uniq

    est = horizon
    for s in range(1, P):
        width = (policy.d_u_eff[s - 1] - policy.d_l_eff[s] + 3
                 if not policy.barrier else 2)
        est *= max(2, width)
        if est > max_states:
            break
    if est > max_states:
        report.note(
            f"state space estimate {est} exceeds {max_states}; using the "
            "analytic minimum-gap bound instead of exhaustive exploration")
        _analytic_check(spec, policy, table, report)
        return

    init: State = (0,) * P
    parent: Dict[State, Optional[Tuple[State, int]]] = {init: None}
    frontier: List[State] = [init]
    reported: set = set()
    deadlocked = False
    n_seen = 1
    while frontier:
        state = frontier.pop()
        finished = [state[s] >= horizon for s in range(P)]
        if all(finished):
            continue
        ready = [s for s in range(P)
                 if not finished[s] and policy.ready(s, state, finished)]
        if not ready:
            if not deadlocked:
                deadlocked = True
                path = _reconstruct(parent, state)
                why = "\n".join(policy.why_blocked(s, state, finished)
                                for s in range(P) if not finished[s])
                report.add(
                    "deadlock", "error", f"counters {state}",
                    "the pipeline reaches a state where no unfinished "
                    "stage is ready and no counter can ever change",
                    f"interleaving: {_format_path(path)}\n{why}",
                )
            continue
        for s in ready:
            i = state[s]
            for other in range(P):
                if (s, other) not in per_pair:
                    continue
                for cons in per_pair[(s, other)]:
                    j = i + cons.delta
                    if j >= horizon or j >= n_blocks:
                        continue  # conflicting block beyond the traversal
                    if state[other] > j:
                        break  # binding lead satisfied; weaker ones too
                    key = (s, other, cons.kind)
                    if key not in reported:
                        reported.add(key)
                        path = _reconstruct(parent, state)
                        report.add(
                            f"{cons.kind}-hazard", "error",
                            f"stage {s}, block {i}, update {cons.u}",
                            f"the window permits stage {s} to start block "
                            f"{i} while stage {other} has completed only "
                            f"{state[other]} blocks: its op (block {j}, "
                            f"update {cons.w}) is pending and conflicts "
                            f"({cons.kind.upper()})",
                            f"witness interleaving: {_format_path(path)}\n"
                            f"then stage {s} starts block {i}; "
                            f"required lead c_{other} - c_{s} >= "
                            f"{cons.lead}, permitted gap "
                            f"{state[other] - i}; {cons.cells}",
                        )
                    break  # deeper constraints share the binding lead
            nxt = list(state)
            nxt[s] += 1
            nstate: State = tuple(nxt)
            if nstate not in parent:
                parent[nstate] = (state, s)
                frontier.append(nstate)
                n_seen += 1
                if n_seen > max_states:
                    report.note(
                        f"exploration truncated at {max_states} states; "
                        "falling back to the analytic minimum-gap bound")
                    _analytic_check(spec, policy, table, report)
                    return
    mode = "barrier rounds" if policy.barrier else "relaxed counters"
    report.note(
        f"exhaustively explored {n_seen} counter states over a "
        f"{horizon}-block horizon ({mode}); every permitted interleaving "
        "checked")


def _analytic_check(spec: ScheduleSpec, policy: _Readiness,
                    table: ConstraintTable, report: Report) -> None:
    """Closed-form check: minimum reachable gap vs. required lead.

    Under the relaxed policy the gap to the immediate predecessor is at
    least ``d_l_eff`` at the moment a stage starts a block, and each
    further link of the chain can be mid-block, one below its own
    bound; the barrier keeps every adjacent gap at exactly one block.
    """
    for (s, other), cons in sorted(table.lead.items()):
        if policy.barrier:
            min_gap = s - other
        else:
            chain = [policy.d_l_eff[k] for k in range(other + 1, s + 1)]
            min_gap = sum(chain) - (len(chain) - 1)
        if min_gap < cons.lead:
            report.add(
                f"{cons.kind}-hazard", "error",
                f"stage {s} vs stage {other}",
                f"the permitted minimum counter gap c_{other} - c_{s} = "
                f"{min_gap} is below the required lead {cons.lead} "
                f"(update {cons.u} vs pending update {cons.w})",
                f"{cons.cells}; any interleaving holding the chain of "
                "adjacent gaps at its lower bound exhibits the race",
            )
    if not policy.barrier:
        for s in range(spec.n_stages - 1):
            if policy.d_u_eff[s] + 1 < policy.d_l_eff[s + 1]:
                report.add(
                    "deadlock", "error", f"stages {s} and {s + 1}",
                    f"the window is empty: stage {s} stalls once its lead "
                    f"reaches d_u+1 = {policy.d_u_eff[s] + 1}, below the "
                    f"d_l = {policy.d_l_eff[s + 1]} stage {s + 1} needs "
                    "to ever start",
                    "both counters freeze before either stage finishes; "
                    "the drain waiver never engages",
                )
    report.note("analytic minimum-gap analysis (no interleaving witness "
                "paths in this mode)")


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
                     halo: Optional[int] = None,
                     max_states: int = 200_000) -> Report:
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
    max_states:
        Budget for exhaustive counter exploration before the analytic
        fallback engages.

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
    explore_counters(spec, table, decomp.n_traversal_blocks, report,
                     max_states=max_states)
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


def quick_check(config, shape: Sequence[int] = (32, 32, 32),
                topology: Sequence[int] = (1, 1, 1)) -> bool:
    """Cheap certification used as a sweep pre-filter (autotune, serve).

    Caps the automaton low so a few hundred candidate configs stay
    cheap; a config rejected here would also be rejected by the full
    analyzer.  With a topology it also answers whether the decomposition
    can be built at all and whether the storage runs distributed
    (``dist-geometry`` / ``dist-storage`` errors), so it is the whole of
    autoconf's validity test.
    """
    return analyze_schedule(config, shape, topology, max_states=5_000).ok
