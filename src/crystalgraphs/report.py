"""Machine-checkable pass/fail records for relation and axiom suites."""

from __future__ import annotations

from typing import NamedTuple


class Check(NamedTuple):
    name: str
    passed: bool
    cases: int = 0
    detail: str = ""
    # cases covered by a certificate instead of a computation; never folded
    # into the computed count
    implied: int = 0
    implied_by: str = ""
    # cases of the certificate's own lemma, checked in the run as a premise;
    # never part of the case count
    lemma_cases: int = 0

    @property
    def computed(self) -> int:
        return self.cases - self.implied

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        text = f"{status} {self.name}"
        if self.cases:
            text += f" ({self.cases} cases)"
        if not self.passed and self.detail:
            text += f": {self.detail}"
        return text

    def lines(self) -> list[str]:
        """The status line, then the computed/implied split of a certified
        check under the tag that opens its name."""
        out = [self.line()]
        if self.implied:
            tag = self.name.split()[0]
            out.append(
                f"  {tag} split: {self.computed} computed, "
                f"{self.implied} implied by {self.implied_by}"
            )
        return out


class VerificationReport:
    def __init__(self) -> None:
        self.checks: list[Check] = []

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(
        self,
        name: str,
        passed: bool,
        cases: int = 0,
        detail: str = "",
        implied: int = 0,
        implied_by: str = "",
        lemma_cases: int = 0,
    ) -> Check:
        check = Check(name, bool(passed), cases, detail, implied, implied_by, lemma_cases)
        self.checks.append(check)
        return check

    def extend(self, other: "VerificationReport") -> None:
        self.checks.extend(other.checks)

    def lines(self) -> list[str]:
        return [line for c in self.checks for line in c.lines()]

    def __str__(self) -> str:
        return "\n".join(self.lines())

    def to_json(self) -> str:
        import json  # only JSON output pays for the import

        return json.dumps(
            {
                "passed": self.passed,
                "checks": [
                    {
                        "name": c.name,
                        "passed": c.passed,
                        "cases": c.cases,
                        "computed": c.computed,
                        "implied": c.implied,
                        "lemma_cases": c.lemma_cases,
                        "detail": c.detail,
                    }
                    for c in self.checks
                ],
            }
        )
