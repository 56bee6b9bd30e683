import json
import re
from pathlib import Path

from crystalgraphs.report import Check, VerificationReport

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "crystalgraphs"


def test_only_the_report_module_records_checks():
    pattern = re.compile(r"\bCheck\(|\breport\w*\.add\(")
    assert (PACKAGE / "report.py").is_file()
    offenders = [
        path.name
        for path in PACKAGE.glob("*.py")
        if path.name != "report.py" and pattern.search(path.read_text(encoding="utf-8"))
    ]
    assert offenders == []
    assert not hasattr(VerificationReport, "add")


def test_certify_counts_cases_and_keeps_the_first_failure():
    report = VerificationReport()
    held = report.certify("held", ["", ""], 3, "a lemma", {"premise": True}, 7)
    assert held == Check("held", True, 5, "", 3, "a lemma", 7)
    failed = report.certify("failed", iter(["", "first", ""]), 3, "a lemma", {"p": False})
    assert failed == Check(
        "failed", False, 3, "first; premise p fails, so 3 implied cases are not certified", failed=1
    )
    assert report.checks == [held, failed] and not report.passed
    assert report.lines() == [
        "PASS held (5 cases)",
        "  held split: 2 computed, 3 implied by a lemma",
        "FAIL failed (3 cases): first; premise p fails, so 3 implied cases are not certified",
    ]


def test_certify_counts_every_failed_case_and_names_the_first_three():
    report = VerificationReport()
    results = ["", "a", "b", "", "c", "d", "e"]
    check = report.certify("many", iter(results), 4, "a lemma", {"p": False})
    assert check.failed == 5 and check.cases == 7 and check.implied == 0
    assert check.detail == (
        "a; b; c; 2 more failed cases; premise p fails, so 4 implied cases are not certified"
    )
    # three failures name themselves, with no count of the rest
    three = report.certify("three", ["x", "", "y", "z"])
    assert three.failed == 3 and three.detail == "x; y; z"
    assert report.certify("held", ["", ""]).failed == 0
    checks = json.loads(report.to_json())["checks"]
    assert [c["failed"] for c in checks] == [5, 3, 0]


def test_certify_records_elapsed_seconds_per_check():
    report = VerificationReport()
    report.certify("quick", ["", ""])
    report.certify("precomputed", [""], spent=5.0)
    other = VerificationReport()
    other.certify("merged", [])
    report.extend(other)
    assert len(report.elapsed) == len(report.checks) == 3
    assert all(seconds >= 0 for seconds in report.elapsed)
    # seconds spent computing the results before the call are added
    assert 5.0 <= report.elapsed[1] < 6.0
