"""Project-aware AST lint: the repo's own hazard classes, machine-checked.

Generic hygiene rules (dead imports, mutable default arguments, bare
``except:``) ride along, but the point of this pass is the three rules
that encode *this* project's invariants — the ones a generic linter
cannot know:

* **spawn-pickle** — anything handed to a procmpi rank entry
  (``run_procs``/``run_job``) crosses a ``spawn`` process boundary by
  pickling, and pickle resolves functions *by module path*: only
  module-level callables survive.  Lambdas and nested functions raise
  only at runtime, inside the child — this rule catches them at lint
  time (the PR-4 behaviour note turned into a machine check).
* **shm-lifecycle** — every shared-memory segment must be created
  through :class:`repro.dist.shm.ShmPool`, whose owner-only unlink
  discipline guarantees exactly-once cleanup; and any code that
  *constructs* a pool must visibly close it (``cleanup()`` or a
  ``with`` block), or segments leak past process exit.
* **engine-contract** — execution engines may touch destinations only
  through ``storage.write``/``write_view``+``commit_write``, or the raw
  arrays followed by ``commit_write`` (private storage internals are how
  silent bit-corruption starts), a ``write_view`` without a matching
  ``commit_write`` leaves the compressed grid's moving ring unstored,
  and every :class:`~repro.engine.base.Engine` subclass must declare
  ``name`` and ``semantics`` — the serve cache key depends on the
  semantics class, so an engine without one would poison content
  addressing.
* **span-pairing** — observability spans (``tracer.span(...)``) must be
  the context expression of a ``with`` statement (or sit inside a
  ``try``/``finally``): a span entered any other way stays open when an
  exception unwinds, corrupting every containing timeline.
* **cond-wait-loop** — ``Condition.wait()`` must sit inside a ``while``
  loop that re-checks the predicate.  An ``if``-guarded wait is the
  missed-/spurious-wakeup bug class the threaded rail's
  :class:`~repro.core.sync.CounterBoard` exists to fix (a stage can
  become ready because its predecessor *finished* — no further counter
  update will ever arrive), so the pattern is banned mechanically.
* **no-naked-perf-counter** — serving/observability code must not call
  ``time.perf_counter()`` directly: timings there either belong to a
  tracer span or to the monitor's injectable clock, and a naked reading
  is invisible to both (it can't be replayed deterministically and
  never shows up in a histogram).  Only the two clock primitives —
  ``obs/tracer.py`` and ``obs/monitor/sampling.py`` — may touch the
  raw counter.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Callable, Iterable, Iterator, List, Sequence, Tuple

from .findings import Finding, Report

__all__ = ["lint_paths", "lint_source", "CHECKERS"]

#: (checker-name, line, message, witness)
Issue = Tuple[str, int, str, str]
Checker = Callable[[str, ast.Module, Sequence[str]], Iterator[Issue]]


def _walk_defs(tree: ast.Module):
    """(node, depth) for every function/class def; depth 0 = module level."""
    def rec(node, depth):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                yield child, depth
                yield from rec(child, depth + 1)
            else:
                yield from rec(child, depth)
    yield from rec(tree, 0)


def _dunder_all(tree: ast.Module) -> Tuple[bool, List[str]]:
    """Whether the module defines ``__all__`` and the literal names in it."""
    names: List[str] = []
    found = False
    for node in tree.body:
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AugAssign):
            targets = [node.target]
        for t in targets:
            if isinstance(t, ast.Name) and t.id == "__all__":
                found = True
                for elt in ast.walk(node):
                    if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                        names.append(elt.value)
    return found, names


# -- generic hygiene ----------------------------------------------------------


def check_dead_imports(path: str, tree: ast.Module,
                       lines: Sequence[str]) -> Iterator[Issue]:
    """Imported names never referenced in the module (ruff F401).

    ``__init__.py`` modules re-export: names listed in ``__all__`` count
    as used, and an ``__init__.py`` without ``__all__`` is skipped
    entirely (every import there is plausibly a re-export).
    """
    is_init = Path(path).name == "__init__.py"
    has_all, all_names = _dunder_all(tree)
    if is_init and not has_all:
        return
    imported = {}  # binding -> (line, shown-name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                binding = alias.asname or alias.name.split(".")[0]
                imported[binding] = (node.lineno, alias.name)
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                binding = alias.asname or alias.name
                imported[binding] = (node.lineno, alias.name)
    if not imported:
        return
    used = set(all_names)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            # getattr-style dynamic use is rare; Name covers the base.
            pass
    for binding, (line, shown) in sorted(imported.items(),
                                         key=lambda kv: kv[1][0]):
        if binding not in used:
            yield ("dead-import", line,
                   f"{shown!r} is imported but never used",
                   lines[line - 1].strip() if line <= len(lines) else "")


def check_mutable_defaults(path: str, tree: ast.Module,
                           lines: Sequence[str]) -> Iterator[Issue]:
    """Mutable default argument values (ruff B006)."""
    mutable_calls = {"list", "dict", "set"}
    for node, _depth in _walk_defs(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None]
        for d in defaults:
            bad = isinstance(d, (ast.List, ast.Dict, ast.Set,
                                 ast.ListComp, ast.DictComp, ast.SetComp))
            if (isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
                    and d.func.id in mutable_calls):
                bad = True
            if bad:
                yield ("mutable-default", d.lineno,
                       f"function {node.name!r} has a mutable default "
                       "argument (shared across calls)",
                       lines[d.lineno - 1].strip()
                       if d.lineno <= len(lines) else "")


def check_bare_except(path: str, tree: ast.Module,
                      lines: Sequence[str]) -> Iterator[Issue]:
    """``except:`` with no exception type (ruff E722)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is None:
            yield ("bare-except", node.lineno,
                   "bare 'except:' swallows SystemExit/KeyboardInterrupt",
                   lines[node.lineno - 1].strip()
                   if node.lineno <= len(lines) else "")


# -- project rules ------------------------------------------------------------

_RANK_ENTRIES = {"run_procs": 1, "run_job": 0}


def check_spawn_pickle(path: str, tree: ast.Module,
                       lines: Sequence[str]) -> Iterator[Issue]:
    """Rank entry points must be module-level callables (spawn pickling)."""
    module_level = set()
    nested = set()
    for node, depth in _walk_defs(tree):
        if depth == 0:
            module_level.add(node.name)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            nested.add(node.name)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        fname = None
        if isinstance(node.func, ast.Name):
            fname = node.func.id
        elif isinstance(node.func, ast.Attribute):
            fname = node.func.attr
        if fname not in _RANK_ENTRIES:
            continue
        idx = _RANK_ENTRIES[fname]
        arg = None
        if len(node.args) > idx:
            arg = node.args[idx]
        else:
            for kw in node.keywords:
                if kw.arg == "fn":
                    arg = kw.value
        if arg is None:
            continue
        src = lines[node.lineno - 1].strip() if node.lineno <= len(lines) else ""
        if isinstance(arg, ast.Lambda):
            yield ("spawn-pickle", arg.lineno,
                   f"lambda passed to {fname}(): spawn start methods "
                   "pickle the entry by module path; lambdas fail inside "
                   "the child process", src)
        elif (isinstance(arg, ast.Name) and arg.id in nested
                and arg.id not in module_level):
            yield ("spawn-pickle", node.lineno,
                   f"{arg.id!r} passed to {fname}() is a nested function: "
                   "spawn pickling resolves entries by module path, so "
                   "rank entries must be module-level callables", src)


def check_shm_lifecycle(path: str, tree: ast.Module,
                        lines: Sequence[str]) -> Iterator[Issue]:
    """Segment creation and unlinking stay inside ``dist/shm.py``."""
    p = Path(path)
    if p.name == "shm.py" and p.parent.name == "dist":
        return
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            fname = None
            if isinstance(node.func, ast.Name):
                fname = node.func.id
            elif isinstance(node.func, ast.Attribute):
                fname = node.func.attr
            src = (lines[node.lineno - 1].strip()
                   if node.lineno <= len(lines) else "")
            if fname == "SharedMemory":
                creates = any(kw.arg == "create"
                              and isinstance(kw.value, ast.Constant)
                              and kw.value.value is True
                              for kw in node.keywords)
                if creates:
                    yield ("shm-lifecycle", node.lineno,
                           "raw SharedMemory(create=True) outside "
                           "dist/shm.py: segments must come from ShmPool "
                           "so the owner-unlink path dominates every "
                           "create", src)
            elif (fname == "unlink" and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in ("shm", "seg", "segment")):
                yield ("shm-lifecycle", node.lineno,
                       "direct segment unlink outside dist/shm.py: only "
                       "the owning ShmPool may unlink (double-unlink "
                       "races)", src)
    # A file that constructs pools must visibly release them.
    makes_pool = any(
        isinstance(n, ast.Call) and (
            (isinstance(n.func, ast.Name) and n.func.id == "ShmPool")
            or (isinstance(n.func, ast.Attribute) and n.func.attr == "ShmPool"))
        for n in ast.walk(tree))
    if makes_pool:
        releases = any(
            isinstance(n, ast.Attribute) and n.attr in ("cleanup", "close")
            for n in ast.walk(tree))
        if not releases:
            yield ("shm-lifecycle", 1,
                   "this module constructs ShmPool but never calls "
                   "cleanup()/close(): segments would outlive the process",
                   "")


_ENGINE_EXEMPT = {"base.py", "registry.py", "__init__.py"}


def check_engine_contract(path: str, tree: ast.Module,
                          lines: Sequence[str]) -> Iterator[Issue]:
    """Engine modules: declared semantics, storage API discipline."""
    p = Path(path)
    if p.parent.name != "engine" or p.name in _ENGINE_EXEMPT:
        return
    for node, _depth in _walk_defs(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        bases = set()
        for b in node.bases:
            if isinstance(b, ast.Name):
                bases.add(b.id)
            elif isinstance(b, ast.Attribute):
                bases.add(b.attr)
        if "Engine" not in bases:
            continue
        assigned = set()
        for stmt in node.body:
            if isinstance(stmt, ast.Assign):
                for t in stmt.targets:
                    if isinstance(t, ast.Name):
                        assigned.add(t.id)
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                    stmt.target, ast.Name) and stmt.value is not None:
                assigned.add(stmt.target.id)
        for required in ("name", "semantics"):
            if required not in assigned:
                yield ("engine-contract", node.lineno,
                       f"engine class {node.name!r} does not declare "
                       f"{required!r}; the serve cache keys on the "
                       "semantics class, so every engine must state its "
                       "bit-semantics", f"class {node.name}(...):")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "storage"
                and node.attr.startswith("_")):
            yield ("engine-contract", node.lineno,
                   f"engine code reaches into storage.{node.attr}: "
                   "destinations may only be touched through write/"
                   "write_view/commit_write",
                   lines[node.lineno - 1].strip()
                   if node.lineno <= len(lines) else "")
    for node, _depth in _walk_defs(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        calls = {n.func.attr for n in ast.walk(node)
                 if isinstance(n, ast.Call)
                 and isinstance(n.func, ast.Attribute)}
        if "write_view" in calls and "commit_write" not in calls:
            yield ("engine-contract", node.lineno,
                   f"{node.name!r} obtains a write_view but never calls "
                   "commit_write: the compressed grid's moving-face ring "
                   "cells would never be stored",
                   f"def {node.name}(...)")


def check_span_pairing(path: str, tree: ast.Module,
                       lines: Sequence[str]) -> Iterator[Issue]:
    """Tracer spans must enter/exit in lockstep: ``with`` or try/finally.

    A ``.span(...)`` call whose context manager is never exited (e.g.
    assigned and entered manually) leaves the span open across an
    exception, so every instrumented module must scope spans with a
    ``with`` statement or inside a ``try`` body that has a ``finally``.
    The :mod:`repro.obs` package itself (which builds and replays span
    objects) is exempt.
    """
    p = Path(path)
    if p.parent.name == "obs":
        return
    protected = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                protected.add(id(item.context_expr))
        elif isinstance(node, ast.Try) and node.finalbody:
            for stmt in node.body:
                for sub in ast.walk(stmt):
                    protected.add(id(sub))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "span"
                and id(node) not in protected):
            yield ("span-pairing", node.lineno,
                   "span() call is not the context expression of a 'with' "
                   "statement (nor inside try/finally): an exception would "
                   "leave the span open",
                   lines[node.lineno - 1].strip()
                   if node.lineno <= len(lines) else "")


def check_cond_wait_loop(path: str, tree: ast.Module,
                         lines: Sequence[str]) -> Iterator[Issue]:
    """Condition-variable waits must re-check their predicate in a loop.

    Flags ``<receiver>.wait(...)`` where the receiver's name mentions
    ``cond`` (``cond``, ``self._cond``, ``ready_condition``, ...) and
    the call is not lexically inside a ``while`` statement.  Both
    failure modes of a straight-line or ``if``-guarded wait are real
    here: ``Condition.wait`` may return spuriously, and a wakeup for a
    *different* predicate (another stage's window opening, the drain
    waiver, an abort) must be re-evaluated, not trusted.  Events and
    futures (``ev.wait()``, ``fut.wait()``) are level-triggered and are
    not matched.
    """
    in_while = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.While):
            for stmt in node.body:
                for sub in ast.walk(stmt):
                    in_while.add(id(sub))
            for sub in ast.walk(node.test):
                in_while.add(id(sub))
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "wait"):
            continue
        recv = node.func.value
        recv_name = ""
        if isinstance(recv, ast.Name):
            recv_name = recv.id
        elif isinstance(recv, ast.Attribute):
            recv_name = recv.attr
        if "cond" not in recv_name.lower():
            continue
        if id(node) in in_while:
            continue
        yield ("cond-wait-loop", node.lineno,
               f"{recv_name}.wait() outside a 'while' loop: condition "
               "waits must re-check their predicate (spurious wakeups; "
               "wakeups for other predicates, e.g. the drain waiver)",
               lines[node.lineno - 1].strip()
               if node.lineno <= len(lines) else "")


#: The raw-clock primitives: the only serve/obs files allowed to read
#: time.perf_counter() directly (everything else goes through them).
_CLOCK_PRIMITIVES = {("obs", "tracer.py"), ("monitor", "sampling.py")}


def check_no_naked_perf_counter(path: str, tree: ast.Module,
                                lines: Sequence[str]) -> Iterator[Issue]:
    """Serve/obs timings must flow through spans or the monitor clock.

    Flags direct ``time.perf_counter()`` / ``perf_counter_ns()`` calls
    in :mod:`repro.serve` and :mod:`repro.obs` modules.  A naked
    reading there is a measurement neither the tracer nor the monitor
    can see: it bypasses the injectable clock (so determinism tests
    cannot replay it) and never lands in a histogram or trace.  The two
    clock primitives themselves are allowlisted.
    """
    p = Path(path)
    in_scope = (p.parent.name in ("serve", "obs")
                or (p.parent.name == "monitor"
                    and p.parent.parent.name == "obs"))
    if not in_scope or (p.parent.name, p.name) in _CLOCK_PRIMITIVES:
        return
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        fname = None
        if isinstance(node.func, ast.Name):
            fname = node.func.id
        elif isinstance(node.func, ast.Attribute):
            fname = node.func.attr
        if fname in ("perf_counter", "perf_counter_ns"):
            yield ("no-naked-perf-counter", node.lineno,
                   f"direct {fname}() in serving/observability code: time "
                   "through a tracer span or the monitor's injectable "
                   "clock (repro.obs.monitor.monotime) so the reading is "
                   "replayable and lands in the histograms",
                   lines[node.lineno - 1].strip()
                   if node.lineno <= len(lines) else "")


#: The rule set, in report order.
CHECKERS: Tuple[Checker, ...] = (
    check_dead_imports,
    check_mutable_defaults,
    check_bare_except,
    check_spawn_pickle,
    check_shm_lifecycle,
    check_engine_contract,
    check_span_pairing,
    check_cond_wait_loop,
    check_no_naked_perf_counter,
)


def lint_source(path: str, source: str,
                checkers: Sequence[Checker] = CHECKERS) -> List[Finding]:
    """Lint one file's source text; returns findings (possibly empty)."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [Finding("syntax", "error", f"{path}:{exc.lineno or 0}",
                        f"cannot parse: {exc.msg}")]
    lines = source.splitlines()
    out: List[Finding] = []
    for checker in checkers:
        for name, line, message, witness in checker(path, tree, lines):
            out.append(Finding(name, "error", f"{path}:{line}",
                               message, witness))
    return out


def _iter_py(paths: Iterable[str]) -> Iterator[Path]:
    for p in paths:
        path = Path(p)
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            yield path


def lint_paths(paths: Sequence[str],
               checkers: Sequence[Checker] = CHECKERS) -> Report:
    """Lint files/directories; the CLI's ``lint`` subcommand core."""
    report = Report(subject=", ".join(str(p) for p in paths))
    n_files = 0
    for path in _iter_py(paths):
        n_files += 1
        try:
            source = path.read_text(encoding="utf-8")
        except OSError as exc:
            report.add("io", "error", str(path), f"cannot read: {exc}")
            continue
        report.findings.extend(lint_source(str(path), source, checkers))
    report.note(f"linted {n_files} file(s) with {len(checkers)} checkers")
    return report
