"""Machine-checkable pass/fail records for relation and axiom suites."""

from __future__ import annotations

import time
from typing import Iterable, NamedTuple


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
    # computed cases that fail; the detail names the first three
    failed: int = 0

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
            tag = self.name.split()[0].rstrip(":")
            out.append(
                f"  {tag} split: {self.computed} computed, "
                f"{self.implied} implied by {self.implied_by}"
            )
        return out


class VerificationReport:
    def __init__(self) -> None:
        self.checks: list[Check] = []
        # seconds each check took, in the order of checks
        self.elapsed: list[float] = []

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def certify(
        self,
        name: str,
        results: Iterable[str],
        implied: int = 0,
        implied_by: str = "",
        premises: dict[str, bool] | None = None,
        lemma_cases: int = 0,
        spent: float = 0.0,
    ) -> Check:
        """Record check `name` from its computed cases and its certificate, if
        any; the only way a check enters a report.

        `results` yields one entry per computed case: empty when the case
        holds, else why it fails.  The failing cases are counted, and the
        first three (with the number of the rest) open the detail.  `implied`
        further cases follow from `premises` (name -> held) by the lemma
        `implied_by`, whose own `lemma_cases` checked cases are recorded but
        never counted.  The check passes with computed + implied cases only
        when every computed case and every premise holds.  Otherwise it fails
        with the computed count alone and names the first failed case and
        each failed premise.

        The check's elapsed seconds are the time spent reading `results`,
        plus `spent` seconds already spent computing them before the call.
        """
        clock = time.perf_counter()
        computed = failed = 0
        reasons = []
        for result in results:
            computed += 1
            if result:
                failed += 1
                if failed <= 3:
                    reasons.append(result)
        if failed > 3:
            reasons.append(f"{failed - 3} more failed cases")
        reasons += [
            f"premise {premise} fails, so {implied} implied cases are not certified"
            for premise, held in (premises or {}).items()
            if not held
        ]
        if reasons:
            check = Check(
                name, False, computed, "; ".join(reasons), lemma_cases=lemma_cases, failed=failed
            )
        else:
            check = Check(name, True, computed + implied, "", implied, implied_by, lemma_cases)
        self.checks.append(check)
        self.elapsed.append(spent + time.perf_counter() - clock)
        return check

    def extend(self, other: "VerificationReport") -> None:
        self.checks.extend(other.checks)
        self.elapsed.extend(other.elapsed)

    def lines(self) -> list[str]:
        return [line for c in self.checks for line in c.lines()]

    def __str__(self) -> str:
        return "\n".join(self.lines())

    def to_json(self, caches: dict | None = None, peak_rss_mb: float | None = None) -> str:
        """The report as JSON, with the cache statistics and the process's
        peak resident set size in MiB when given."""
        import json  # only JSON output pays for the import

        out = {
            "passed": self.passed,
            "checks": [
                {
                    "name": c.name,
                    "passed": c.passed,
                    "cases": c.cases,
                    "computed": c.computed,
                    "implied": c.implied,
                    "lemma_cases": c.lemma_cases,
                    "failed": c.failed,
                    "detail": c.detail,
                    "elapsed_s": round(seconds, 6),
                }
                for c, seconds in zip(self.checks, self.elapsed)
            ],
        }
        if caches is not None:
            out["caches"] = caches
        if peak_rss_mb is not None:
            out["peak_rss_mb"] = peak_rss_mb
        return json.dumps(out)
