"""Pass/fail reports for axiom verification."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    witness: str | None = None

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        extra = f"  [{self.witness}]" if self.witness else ""
        return f"{status}  {self.name}{extra}"


@dataclass
class VerificationReport:
    """Outcome of an axiom suite.

    Structural problems (missing entries, non-bijective involution, bad
    labels) are listed apart from axiom failures; a report with structural
    errors skips whatever axioms could not be evaluated.
    """

    subject: str
    checks: list[CheckResult] = field(default_factory=list)
    structural_errors: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.structural_errors and all(c.passed for c in self.checks)

    @property
    def structurally_sound(self) -> bool:
        return not self.structural_errors

    def failed_checks(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def add(self, name: str, passed: bool, witness: str | None = None) -> None:
        self.checks.append(CheckResult(name, passed, witness))

    def first(self, name: str, witnesses: Iterable[str]) -> None:
        """Record ``name`` as failed at the first witness, or as passed when
        there is none; the iterable is consumed only up to that witness."""
        witness = next(iter(witnesses), None)
        self.add(name, witness is None, witness)

    def first_index(self, name: str, bad: np.ndarray, *axis_labels: Sequence[str]) -> None:
        """Record ``name`` as failed at the first true entry of ``bad`` in
        row-major order, named by one label list per axis, or as passed."""
        if not bad.any():
            self.add(name, True)
            return
        idx = np.unravel_index(int(bad.argmax()), bad.shape)
        self.add(name, False, ", ".join(labels[i] for labels, i in zip(axis_labels, idx)))

    def lines(self) -> list[str]:
        out = [f"verification of {self.subject}"]
        for err in self.structural_errors:
            out.append(f"STRUCTURAL  {err}")
        out.extend(c.line() for c in self.checks)
        out.append("result: " + ("ok" if self.ok else "failed"))
        return out

    def text(self) -> str:
        return "\n".join(self.lines())
