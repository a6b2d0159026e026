"""The closed-form legality check against a search of the counter automaton.

The analyzer decides the races and deadlocks of the Eq. 3 counter
protocol in closed form (:mod:`repro.analysis.checker`).  It used to
prove the same things by searching the counter automaton: states are
per-stage progress counters, a transition is "a ready stage completes
its next block", and every reachable state is checked.  That search
lives on here, as the oracle, driving the executor's own policy:

* **Differential** — on generated specs (``d_l = 0``, empty windows,
  team delays, the barrier, up to six stages, both storages) the closed
  form and the search give the same verdict and the same set of race
  and deadlock checkers.
* **Witnesses** — every race and deadlock the closed form reports
  carries an interleaving that replays on a real
  :class:`~repro.core.sync.CounterBoard` to the state it names.
* **The verdict is the closed form's** — a race the witness drive never
  reaches is an internal error, never a certificate.
* **Runs** — the executor's multi-block steps (``run_length`` plus one
  batched publication) are the same stage picked that many times in a
  row: same counters, log and gap, every link within ``d_u + 1``, and
  a frozen run-driven pass only where the closed form found a deadlock.

The CI ``analysis`` job runs this file under the ``ci`` Hypothesis
profile, with ten times the draws.
"""

import ast
import re
from typing import Dict, List, Optional, Tuple

import pytest
from hypothesis import event, given, reject, settings, strategies as st

from repro.analysis import ScheduleSpec, analyze_schedule, checker
from repro.analysis.checker import _format_path
from repro.analysis.findings import Report
from repro.analysis.hazards import (
    ConstraintTable,
    build_constraints,
    check_coverage_static,
    decomposition_for,
)
from repro.core.sync import BarrierPolicy, CounterBoard, effective_windows

State = Tuple[int, ...]

#: The schedule checkers this file compares.  Intra-stage hazards use
#: the same names, and both reports take them from one hazard table.
COUNTER_CHECKERS = ("raw-hazard", "war-hazard", "waw-hazard", "deadlock")


# -- the oracle: the search the closed form replaced ----------------------------


class OracleBudget(Exception):
    """The state space is past the search's budget: no verdict."""


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
                     max_states: int = 60_000) -> None:
    """Search every state of the counter automaton (capped traversal)."""
    policy = spec.policy()
    barrier = isinstance(policy, BarrierPolicy)
    d_l_eff, d_u_eff = effective_windows(spec.n_stages, spec.threads_per_team,
                                         spec.d_l, spec.d_u, spec.team_delay)
    P = spec.n_stages
    if P == 1:
        return
    max_lead = max((max(leads) for leads in table.by_pair.values()), default=1)
    horizon = min(n_blocks, max(8, max_lead + max(d_u_eff, default=1) + P + 2))
    # Descending-lead constraint lists per stage pair (one per lead): the
    # first constraint whose conflicting block exists is the binding one.
    per_pair = {pair: [leads[lead] for lead in sorted(leads, reverse=True)]
                for pair, leads in table.by_pair.items()}

    est = horizon
    for s in range(1, P):
        width = d_u_eff[s - 1] - d_l_eff[s] + 3 if not barrier else 2
        est *= max(2, width)
    if est > max_states:
        raise OracleBudget(est)

    init: State = (0,) * P
    parent: Dict[State, Optional[Tuple[State, int]]] = {init: None}
    frontier: List[State] = [init]
    reported: set = set()
    deadlocked = False
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
                why = "; ".join(
                    f"stage {s} waits on {policy.blockers(s, state, finished)}"
                    for s in range(P) if not finished[s])
                report.add("deadlock", "error", f"counters {state}",
                           "no unfinished stage is ready",
                           f"interleaving: {_format_path(path)}\n{why}")
            continue
        for s in ready:
            i = state[s]
            for other in range(P):
                for cons in per_pair.get((s, other), ()):
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
                            f"stage {s} may start block {i} while stage "
                            f"{other} has completed {state[other]} blocks",
                            f"witness interleaving: {_format_path(path)}")
                    break  # deeper constraints share the binding lead
            nxt = list(state)
            nxt[s] += 1
            nstate: State = tuple(nxt)
            if nstate not in parent:
                parent[nstate] = (state, s)
                frontier.append(nstate)
                if len(parent) > max_states:
                    raise OracleBudget(len(parent))


def oracle_report(spec: ScheduleSpec, shape) -> Report:
    report = Report("oracle")
    decomp = decomposition_for(spec, shape)
    table = build_constraints(spec, decomp, report)
    check_coverage_static(spec, decomp, report)
    explore_counters(spec, table, decomp.n_traversal_blocks, report)
    return report


def counter_checkers(report: Report) -> List[str]:
    return sorted({f.checker for f in report.errors
                   if f.checker in COUNTER_CHECKERS})


# -- witness replay ------------------------------------------------------------------


def replay(spec: ScheduleSpec, n_blocks: int, finding) -> CounterBoard:
    """Run the finding's interleaving on a real board, step by checked step."""
    board = CounterBoard(spec.policy(), spec.n_stages, n_blocks)
    for stage, block in finding.steps:
        assert stage in board.poll(), (finding.location, stage, block)
        assert board.counters[stage] == block
        board.publish(stage)
    return board


def assert_witness_replays(spec: ScheduleSpec, shape, report: Report) -> None:
    n_blocks = decomposition_for(spec, shape).n_traversal_blocks
    for f in report.errors:
        if f.checker == "deadlock":
            board = replay(spec, n_blocks, f)
            assert board.poll() == [] and not board.done
            named = ast.literal_eval(f.location.removeprefix("counters "))
            assert tuple(board.counters) == named
        elif f.checker in COUNTER_CHECKERS:
            board = replay(spec, n_blocks, f)
            s, i = map(int, re.fullmatch(r"stage (\d+), block (\d+), update \d+",
                                         f.location).groups())
            other, me, lead, gap = map(int, re.search(
                r"c_(\d+) - c_(\d+) >= (-?\d+), permitted gap (-?\d+)",
                f.witness).groups())
            assert me == s and s in board.poll()
            assert board.counters[s] == i
            assert board.counters[other] - i == gap < lead


# -- the differential ------------------------------------------------------------


@st.composite
def schedule_specs(draw):
    """A spec and a small domain its geometry fits, legal or not."""
    shape = (draw(st.integers(2, 12)), draw(st.integers(2, 8)),
             draw(st.integers(2, 8)))
    block = tuple(draw(st.sampled_from([1, 2, 3, 5, 1000])) for _ in range(3))
    teams, t = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    if draw(st.integers(0, 3)) == 0:
        kind, d_l, d_u, d_t = "barrier", 1, 1, 0
    else:
        kind = "relaxed"
        d_l = draw(st.integers(0, 3))
        d_u = draw(st.integers(0, 5))
        d_t = draw(st.sampled_from([0, 0, 1, 2]))
    spec = ScheduleSpec(teams=teams, threads_per_team=t,
                        updates_per_thread=draw(st.integers(1, 2)),
                        block_size=block, sync_kind=kind, d_l=d_l, d_u=d_u,
                        team_delay=d_t,
                        storage=draw(st.sampled_from(["twogrid", "compressed"])))
    decomp = decomposition_for(spec, shape)
    if decomp is None or (spec.storage == "compressed"
                          and not decomp.tiled_dims):
        reject()  # refused before any counter analysis
    event(f"{spec.n_stages} stage(s)")
    if kind == "barrier":
        event("barrier")
    else:
        event(f"d_l = {d_l}" if d_l < 2 else "d_l >= 2")
        if d_u + 1 < d_l:
            event("empty window")
        if d_t:
            event("team delay")
    return spec, shape


@settings(max_examples=5 * settings.default.max_examples, deadline=None)
@given(schedule_specs())
def test_closed_form_agrees_with_the_counter_automaton(case):
    spec, shape = case
    try:
        want = oracle_report(spec, shape)
    except OracleBudget:
        reject()
    got = analyze_schedule(spec, shape)
    assert got.ok == want.ok, (got.describe(), want.describe())
    assert counter_checkers(got) == counter_checkers(want), (
        got.describe(), want.describe())
    if not got.ok:
        event("refused")
        assert_witness_replays(spec, shape, got)


def spec(**kw):
    base = dict(teams=1, threads_per_team=4, updates_per_thread=1,
                block_size=(8, 64, 64), sync_kind="relaxed", d_l=1, d_u=4)
    base.update(kw)
    return ScheduleSpec(**base)


@pytest.mark.parametrize("case, checkers", [
    (spec(d_l=0), ["raw-hazard", "waw-hazard"]),
    (spec(d_l=3, d_u=1), ["deadlock"]),
    (spec(d_l=0, storage="compressed"), ["raw-hazard"]),
    (spec(teams=2, threads_per_team=3, d_l=0, team_delay=2),
     ["raw-hazard", "waw-hazard"]),
    (spec(teams=2, threads_per_team=3, updates_per_thread=2, d_l=0,
          block_size=(4, 4, 64)), ["raw-hazard"]),
], ids=["d_l=0", "empty-window", "compressed-d_l=0", "team-delay-d_l=0",
        "6-stage-2-axis"])
def test_each_refusal_replays_to_its_state(case, checkers):
    shape = (32, 32, 32)
    report = analyze_schedule(case, shape)
    assert counter_checkers(report) == checkers, report.describe()
    assert_witness_replays(case, shape, report)


def test_a_race_off_the_drive_is_never_certified(monkeypatch):
    # The closed form decides; the rear_first drive only illustrates.
    # A decided race the drive cannot reach (here, a block window past
    # the traversal) fails loudly instead of dropping out of the report.
    def races(policy, table, n_blocks):
        leads = table.by_pair[(1, 0)]
        return [(leads[max(leads)], n_blocks, n_blocks)]

    monkeypatch.setattr(checker, "_races", races)
    with pytest.raises(AssertionError, match="no rear_first start reached"):
        analyze_schedule(spec(), (32, 32, 32))


# -- runs of blocks --------------------------------------------------------------
#
# The executor takes, as one step, every block a stage's window admits
# (CounterBoard.run_length) and publishes them together.  A run must be
# exactly the stage picked that many times in a row, so the closed form,
# which reasons about single steps, still covers every state it reaches.


@st.composite
def windows(draw):
    """A policy over random windows, the barrier included, and the
    traversal length of a z-tiled column, with the analyzer's verdict
    on whether some single-step interleaving deadlocks."""
    teams, t = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    if draw(st.integers(0, 3)) == 0:
        window = dict(sync_kind="barrier", d_l=1, d_u=1)
    else:
        window = dict(sync_kind="relaxed", d_l=draw(st.integers(0, 3)),
                      d_u=draw(st.integers(0, 5)),
                      team_delay=draw(st.sampled_from([0, 0, 1, 2])))
    spec = ScheduleSpec(teams=teams, threads_per_team=t,
                        updates_per_thread=draw(st.integers(1, 2)),
                        block_size=(1, 1000, 1000), **window)
    shape = (draw(st.integers(1, 24)), 2, 2)
    n_blocks = decomposition_for(spec, shape).n_traversal_blocks
    deadlock = "deadlock" in counter_checkers(analyze_schedule(spec, shape))
    return spec, n_blocks, deadlock


def link_bounds(spec: ScheduleSpec) -> List[int]:
    """Largest ``c_s - c_{s+1}`` after a publication, per link: a stage
    starts a block only while that gap is at most ``d_u(s)`` (the
    barrier: 1, a stage ahead of its successor by its round), so it
    publishes at most one more."""
    if spec.sync_kind == "barrier":
        return [2] * (spec.n_stages - 1)
    _, d_u_eff = effective_windows(spec.n_stages, spec.threads_per_team,
                                   spec.d_l, spec.d_u, spec.team_delay)
    return [d + 1 for d in d_u_eff[:-1]]


@settings(max_examples=2 * settings.default.max_examples, deadline=None)
@given(windows(), st.integers(1, 8), st.randoms(use_true_random=False))
def test_a_run_is_the_stage_picked_that_many_times(case, cap, rnd):
    # Two boards in lockstep: ``runs`` takes each step as the executor
    # does, run_length then one publish of the run; ``single`` publishes
    # the same stage block by block while its own poll re-admits it.
    spec, n_blocks, deadlock = case
    policy, P = spec.policy(), spec.n_stages
    runs = CounterBoard(policy, P, n_blocks, record_log=True)
    single = CounterBoard(policy, P, n_blocks, record_log=True)
    bounds = link_bounds(spec)
    while not runs.done:
        is_open = runs.poll()
        if not is_open:
            assert deadlock, (spec, n_blocks, runs.describe_wait())
            event("run-driven pass froze")
            return
        assert single.poll() == is_open
        stage = rnd.choice(is_open)
        k = runs.run_length(stage, cap)
        admitted = 0
        while True:
            single.publish(stage)
            admitted += 1
            c = single.counters
            assert all(c[s] - c[s + 1] <= bounds[s] for s in range(P - 1)), (
                c, bounds)
            if admitted == cap or stage not in single.poll([stage]):
                break
        assert k == admitted
        if k > 1:
            event("run of several blocks")
        runs.publish(stage, k)
        assert runs.counters == single.counters
        assert runs.log == single.log
    assert runs.max_counter_gap == single.max_counter_gap <= sum(bounds)
