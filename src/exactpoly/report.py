"""Check reports: ordered PASS/FAIL lines."""
from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"CHECK {self.name} {status} {self.detail}".rstrip()


@dataclass
class Report:
    title: str = ""
    checks: list = field(default_factory=list)

    def add(self, name: str, passed: bool, detail: str = "") -> None:
        prefix = f"{self.title}: " if self.title else ""
        self.checks.append(CheckResult(prefix + name, bool(passed), detail))

    def merge(self, other: "Report") -> None:
        self.checks.extend(other.checks)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self):
        return [c.line() for c in self.checks]

    def failures(self):
        return [c for c in self.checks if not c.passed]

    def render(self) -> str:
        return "\n".join(self.lines()) + "\n"
