"""Reachability gate: every function in ``src/repro`` is reached from a
reproduction path, or named in ``reachability_allow.txt`` with a reason.

    python tools/reachability.py

Pass 1 records the functions tier-1 runs, pass 2 the functions the
reproduction paths run (the examples, the perf suites and reports, the
analysis and obs CLIs, among them ``obs dump|summarize|diff`` on the
traces ``examples/cluster_scaling.py`` writes, the wall-clock
benchmark's smoke run), each through
``recorder/sitecustomize.py``.  A function pass 2 does not reach is flagged,
as *test-only* if pass 1 reaches it and *never-run* otherwise.  The exit
code is 1 if a flagged function is not allowlisted, or an allowlist entry
names no function or names only functions pass 2 reaches.

An allowlist line is ``<file>[::<qualname>]  <category>: <reason>``; a file
or class entry covers every def in it.  The categories are those below.
"""
from __future__ import annotations

import ast
import os
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
ALLOW = Path(__file__).with_name("reachability_allow.txt")
CATEGORIES = {
    "api": "public API that README documents",
    "oracle": "a reference that tests compare against",
    "platform": "the only path on an optional platform",
    "cleanup": "a failure or cleanup path",
    "stencil": "a stencil the equivalence batteries feed every engine",
}
# tracemalloc counts the recorder's own set, so these run unprofiled only.
UNPROFILED = "not (test_solve_peaks_below_storage_plus_one_field and compressed)"


def _is_stub(fn: ast.AST) -> bool:
    """A protocol declaration: a docstring, ``...``, ``pass`` or
    ``raise NotImplementedError`` and nothing else."""
    body = fn.body[1:] if ast.get_docstring(fn) is not None else fn.body
    if not body:
        return True
    only = ast.unparse(body[0]) if len(body) == 1 else ""
    return only in ("...", "pass") or only.startswith("raise NotImplementedError")


def enumerate_defs(src: Path) -> dict:
    """``{(file, first line, name): (qualname, lines)}`` for every def
    that is not a protocol stub.

    A decorated def starts at its first decorator, as its code object does.
    """
    defs = {}

    def visit(node, rel, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                if not _is_stub(child):
                    defs[(rel, first, child.name)] = (
                        prefix + child.name, child.end_lineno - first + 1)
                visit(child, rel, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, rel, f"{prefix}{child.name}.")
            else:
                visit(child, rel, prefix)

    for path in sorted(src.rglob("*.py")):
        visit(ast.parse(path.read_text()), path.relative_to(src).as_posix(), "")
    return defs


def parse_allow(text: str) -> tuple[list, list]:
    """Allowlist lines as ``(target, category)``, and the malformed ones."""
    entries, errors = [], []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        target, _, rest = line.partition(" ")
        category, colon, reason = rest.strip().partition(":")
        if category not in CATEGORIES or not colon or not reason.strip():
            errors.append(f"allowlist: {line!r} needs '<category>: <reason>', "
                          f"category one of {sorted(CATEGORIES)}")
        else:
            entries.append((target, category))
    return entries, errors


def _covers(target: str, rel: str, qualname: str) -> bool:
    file, _, qual = target.partition("::")
    return file == rel and (not qual or qualname == qual
                            or qualname.startswith(qual + "."))


def report(src: Path, pass1: set, pass2: set, allow_text: str) -> tuple[str, int]:
    """The gate's report and exit code for two recorded passes."""
    defs = enumerate_defs(src)
    entries, errors = parse_allow(allow_text)
    by_file = defaultdict(list)
    totals = {"test-only": [0, 0], "never-run": [0, 0]}
    for key, (qual, lines) in sorted(defs.items()):
        if key in pass2:
            continue
        kind = "test-only" if key in pass1 else "never-run"
        totals[kind][0] += 1
        totals[kind][1] += lines
        cats = [c for t, c in entries if _covers(t, key[0], qual)]
        by_file[key[0]].append(f"  {kind:9}  {qual} ({lines})"
                               + (f"  [{cats[0]}]" if cats else ""))
        if not cats:
            errors.append(f"{key[0]}::{qual} is {kind} and not allowlisted")
    for target, _ in entries:
        covered = [k for k, (q, _) in defs.items() if _covers(target, k[0], q)]
        if not covered:
            errors.append(f"allowlist: {target} names no function")
        elif all(k in pass2 for k in covered):
            errors.append(f"allowlist: {target} is reached by pass 2; remove it")
    out = [f"{len(defs)} functions; " + "; ".join(
        f"{kind} {n} ({lines} lines)" for kind, (n, lines) in totals.items())]
    for rel, rows in sorted(by_file.items()):
        out += [rel] + rows
    out += [f"FAIL {e}" for e in errors]
    return "\n".join(out), int(bool(errors))


def _reproduction_paths() -> list:
    """README's commands, run from a scratch directory they write into."""
    py = sys.executable
    perf, ana, obs = ([py, "-m", f"repro.{m}"] for m in ("perf", "analysis", "obs"))
    return ([[py, str(p)] for p in sorted((ROOT / "examples").glob("*.py"))] + [
        perf + ["run", "--suite", "quick"],
        perf + ["compare", str(ROOT / "benchmarks/baselines/BENCH_quick.json"),
                "BENCH_quick.json"],
        perf + ["compare", "--model", "BENCH_quick.json"],
        perf + ["report", "BENCH_quick.json"],
        perf + ["list"],
        perf + ["run", "--suite", "paper", "--filter", "fig*", "--out", "paper.json",
                "--no-archive"],
        ana + ["check-schedule", "--shape", "64,64,64", "--threads", "4",
               "--d-l", "1", "--d-u", "4"],
        *(ana + ["check-schedule", "--suite", s] for s in ("quick", "paper", "stress")),
        ana + ["lint", str(ROOT / "src")],
        # The traces examples/cluster_scaling.py wrote above.
        obs + ["dump", "trace_hybrid.json"],
        obs + ["summarize", "trace_hybrid.json"],
        obs + ["diff", "trace_multihalo.json", "trace_hybrid.json"],
        obs + ["monitor", "--jobs", "4", "--openmetrics", "metrics.txt",
               "--health", "health.json", "--check"],
        obs + ["top", "health.json"],
        [py, str(ROOT / "benchmarks/e2e/run.py"), "--smoke"],
    ])


def record(commands: list, records: str, cwd: str) -> set:
    """Run ``commands`` in ``cwd`` under the recorder; the ``(file, line,
    name)`` keys of every function they started."""
    os.makedirs(records)
    env = {**os.environ, "REACHABILITY_RECORDS": records, "PYTHONPATH": os.pathsep.join(
        [str(Path(__file__).with_name("recorder")), str(ROOT / "src")])}
    for cmd in commands:
        print("$", " ".join(cmd[1:]), file=sys.stderr, flush=True)
        if subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.DEVNULL).returncode:
            sys.exit(f"reachability: {' '.join(cmd[1:])} failed; nothing to report")
    keys = set()
    for path in Path(records).iterdir():
        for row in path.read_text().splitlines():
            file, line, name = row.split("\t")
            if Path(file).resolve().is_relative_to(SRC):
                keys.add((Path(file).resolve().relative_to(SRC).as_posix(), int(line), name))
    return keys


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        pass1 = record([[sys.executable, "-m", "pytest", "-q", "-p", "sitecustomize",
                         "-k", UNPROFILED]], f"{tmp}/pass1", str(ROOT))
        os.makedirs(f"{tmp}/run")
        pass2 = record(_reproduction_paths(), f"{tmp}/pass2", f"{tmp}/run")
    text, code = report(SRC, pass1, pass2, ALLOW.read_text())
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
