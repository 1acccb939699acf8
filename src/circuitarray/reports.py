"""Small result types shared by the verification suites.

Every ``verify_*`` function returns a Report: a titled list of named checks,
each check either passed or failed with a human-readable detail string.
Failures never raise; callers decide whether a failed finding is fatal.

A check that scans a range and stops at the first case that breaks is one
``Report.scan``: the suite hands it a lazy scan that yields the detail of
each failing case, and the check keeps the first detail and reads no
further case.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field


@dataclass
class Check:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class Report:
    title: str
    checks: list[Check] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append(Check(name, passed, detail))

    def scan(self, name: str, failures: Iterable[str]) -> None:
        """Add check ``name`` from a lazy scan yielding one detail per failing
        case: it passes if the scan yields nothing, otherwise it fails with
        the first detail, and the scan is read no further."""
        detail = next(iter(failures), None)
        self.add(name, detail is None, detail or "")

    def note(self, text: str) -> None:
        """Record an informational finding that does not affect pass/fail."""
        self.notes.append(text)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.passed]

    def render(self, verbose: bool = False) -> str:
        out = []
        mark = "PASS" if self.passed else "FAIL"
        out.append(f"[{mark}] {self.title} ({sum(c.passed for c in self.checks)}"
                   f"/{len(self.checks)} checks)")
        for c in self.checks:
            if verbose or not c.passed:
                m = "ok " if c.passed else "FAIL"
                detail = f" -- {c.detail}" if c.detail else ""
                out.append(f"    {m} {c.name}{detail}")
        for n in self.notes:
            out.append(f"    note: {n}")
        return "\n".join(out)
