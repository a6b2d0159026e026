"""Finding and report types shared by both halves of the analyzer.

Every checker — the symbolic schedule analyzer and the AST lint pass —
reports through the same vocabulary: a :class:`Finding` names the
checker that fired, where (a schedule location or a ``file:line``), how
bad it is, and *why*, including a concrete witness whenever one exists
(a counter interleaving, an overlapping cell, a source line).  A
:class:`Report` aggregates findings plus analysis notes and decides
certification: no error-severity findings means the subject passed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

__all__ = [
    "SEVERITIES",
    "Finding",
    "Report",
    "StaticAnalysisError",
]

#: Ordered from worst to mildest.  ``error`` blocks certification;
#: ``warning`` flags legal-but-wasteful configurations; ``info`` is
#: commentary (e.g. a check that was skipped and why).
SEVERITIES = ("error", "warning", "info")


@dataclass(frozen=True)
class Finding:
    """One diagnostic from one checker.

    Parameters
    ----------
    checker:
        Stable kebab-case identifier of the rule that fired
        (``"raw-hazard"``, ``"deadlock"``, ``"dead-import"``, ...).
    severity:
        One of :data:`SEVERITIES`.
    location:
        Where: ``file:line`` for lint findings, a schedule coordinate
        (``"stage 2, block 5, update 3"``) for schedule findings.
    message:
        One-line statement of the defect.
    witness:
        Concrete evidence, human-readable, possibly multi-line: the
        counter interleaving that reaches the race, the exact cells two
        regions share, the offending source line.  Empty when the rule
        is self-evident from the message.
    """

    checker: str
    severity: str
    location: str
    message: str
    witness: str = ""

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(
                f"severity must be one of {SEVERITIES}, got {self.severity!r}")

    def describe(self) -> str:
        """Multi-line rendering used by the CLI and error messages."""
        head = f"[{self.severity}] {self.checker} @ {self.location}: {self.message}"
        if not self.witness:
            return head
        body = "\n".join("    " + line for line in self.witness.splitlines())
        return head + "\n" + body


@dataclass
class Report:
    """Aggregated outcome of one analysis run.

    ``subject`` says what was analyzed (a config description, a list of
    paths); ``notes`` records analysis-mode decisions that affect how to
    read the result (exhaustive vs. analytic exploration, a capped
    traversal horizon, ...).
    """

    subject: str
    findings: List[Finding] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    @property
    def errors(self) -> List[Finding]:
        """Only the certification-blocking findings."""
        return [f for f in self.findings if f.severity == "error"]

    @property
    def ok(self) -> bool:
        """True when nothing blocks certification (warnings allowed)."""
        return not self.errors

    def add(self, checker: str, severity: str, location: str,
            message: str, witness: str = "") -> Finding:
        """Record one finding and return it."""
        f = Finding(checker, severity, location, message, witness)
        self.findings.append(f)
        return f

    def note(self, text: str) -> None:
        """Record an analysis-mode note."""
        self.notes.append(text)

    def describe(self, verbose: bool = False) -> str:
        """Full human-readable rendering (the CLI output)."""
        lines = [f"analysis of {self.subject}:"]
        if not self.findings:
            lines.append("  no findings")
        for f in sorted(self.findings,
                        key=lambda f: SEVERITIES.index(f.severity)):
            lines.extend("  " + line for line in f.describe().splitlines())
        if verbose:
            for n in self.notes:
                lines.append(f"  note: {n}")
        verdict = "CERTIFIED" if self.ok else "REJECTED"
        errs = len(self.errors)
        warns = sum(1 for f in self.findings if f.severity == "warning")
        lines.append(f"  => {verdict} ({errs} error(s), {warns} warning(s))")
        return "\n".join(lines)


class StaticAnalysisError(ValueError):
    """Raised by ``assert_legal`` (and so by ``solve``) on rejection.

    Carries the full :class:`Report` so callers can inspect the witness
    programmatically instead of parsing the message.
    """

    def __init__(self, report: Report) -> None:
        self.report = report
        super().__init__(report.describe())
