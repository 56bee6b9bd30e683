import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from crystalgraphs.cli import main
from crystalgraphs.rootdata import build_root_datum, weyl_group

from helpers import braid_moved_word

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_info(capsys):
    code, out, _ = run(capsys, "info", "--type", "A2")
    assert code == 0
    assert "|W| = 6" in out
    assert "w0 = 1,2,1" in out
    assert "vertices = 6" in out


def test_graph_json_counts_and_determinism(capsys):
    args = ["graph", "--type", "A2", "--colours", "1,0;0,1", "--bound", "1,1", "--emit", "json"]
    code, out, _ = run(capsys, *args)
    assert code == 0
    data = json.loads(out)
    assert data["type"] == "A2"
    assert data["colours"] == [[1, 0], [0, 1]]
    assert len(data["vertices"]) == 6
    by_degree = {}
    for entry in data["paths"]:
        by_degree.setdefault(tuple(entry["degree"]), []).append(entry)
    assert len(by_degree[(1, 0)]) == 12
    assert len(by_degree[(0, 1)]) == 12
    code2, out2, _ = run(capsys, *args)
    assert out2 == out


def test_graph_dot(capsys):
    code, out, _ = run(capsys, "graph", "--type", "A2", "--bound", "1,1", "--emit", "dot")
    assert code == 0
    assert out.count("->") == 24


def test_graph_and_crystal_dot_colour_each_index_alike(capsys):
    # one palette rule for both writers: colour index 1 is red, 2 is blue
    for argv in (["graph", "--type", "A2", "--bound", "1,1"], ["crystal", "--type", "A2"]):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        colours = set(re.findall(r'color="(\w+)", label="(\d+)"', out))
        assert colours == {("red", "1"), ("blue", "2")}


def test_braiding_table(capsys):
    code, out, _ = run(capsys, "braiding", "--type", "A2", "--pair", "1,0;0,1")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 9
    assert "s(a1 (x) b3) = 0" in lines
    assert "s(a3 (x) b1) = b2 (x) a2" in lines


def test_crystal_dot_and_text(capsys):
    code, out, _ = run(capsys, "crystal", "--type", "C2", "--colours", "0,1")
    assert code == 0
    assert out.count("label=\"") == 5 + 4  # 5 nodes, 4 edges
    code, out, _ = run(capsys, "crystal", "--type", "A2", "--colours", "1,0;0,1", "--emit", "text")
    assert code == 0
    assert len(out.strip().splitlines()) == 9


def test_verify_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "--type", "A1", "--suite", "kp")
    assert code == 0
    assert "FAIL" not in out
    code, _, err = run(capsys, "info", "--type", "Q7")
    assert code == 2
    assert "Cartan" in err


def test_verify_json_and_word_override(capsys):
    code, out, _ = run(
        capsys,
        "verify",
        "--type",
        "A2",
        "--suite",
        "kp",
        "--word",
        "2,1,2",
        "--emit",
        "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    code, _, err = run(capsys, "verify", "--type", "A2", "--suite", "kp", "--word", "1,2")
    assert code == 2


def test_verify_all_small(capsys):
    code, out, _ = run(capsys, "verify", "--type", "A1", "--suite", "all", "--bound", "1")
    assert code == 0
    assert "factorization" in out


def test_verify_all_c2(capsys):
    code, out, _ = run(capsys, "verify", "--type", "C2", "--suite", "all", "--bound", "1,1")
    assert code == 0
    assert "FAIL" not in out


def test_verify_all_b2(capsys):
    code, out, _ = run(capsys, "verify", "--type", "B2", "--suite", "all", "--bound", "1,1")
    assert code == 0
    assert "FAIL" not in out
    assert "PASS KP2 path composition (352 cases)" in out
    assert "PASS KP3 orthogonal isometries (5204 cases)" in out


def test_verify_exit_one_on_failure(capsys, monkeypatch):
    from crystalgraphs import cli
    from crystalgraphs.report import VerificationReport

    failing = VerificationReport()
    failing.certify("synthetic", ["forced failure"])
    monkeypatch.setattr(cli, "_run_verify", lambda *a: (failing, str(failing) + "\n"))
    code, out, _ = run(capsys, "verify", "--type", "A1")
    assert code == 1
    assert "FAIL synthetic" in out


def test_output_file(tmp_path, capsys):
    target = tmp_path / "graph.json"
    code, out, _ = run(
        capsys, "graph", "--type", "A2", "--bound", "1,1", "--emit", "json", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["type"] == "A2"


def test_output_file_that_cannot_be_opened_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.txt"
    code, out, err = run(capsys, "info", "--type", "A2", "--out", str(target))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and str(target) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("suite", ["crystal", "braiding", "graph", "kp", "all"])
def test_an_invalid_word_is_rejected_by_every_suite(capsys, suite):
    argv = ["verify", "--type", "A2", "--suite", suite, "--bound", "1,1", "--word", "9,9"]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "error: (9, 9) is not a reduced word for the longest element of W(A2)\n"


def test_suites_without_a_word_need_no_weyl_group(capsys):
    # |W(A8)| is above the enumeration cap; the crystal suite never reads W
    argv = ["verify", "--type", "A8", "--suite", "crystal", "--colours", "1,0,0,0,0,0,0,0"]
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out.startswith("PASS crystal: sizes and axioms")
    code, _, err = run(capsys, *argv, "--word", "1")
    assert code == 2 and "exceeds the cap" in err


def test_a_crystal_above_the_size_cap_is_a_usage_error(capsys):
    # B(60,60) of A2 has 226,981 elements; the cap is checked before any build
    code, out, err = run(capsys, "crystal", "--type", "A2", "--colours", "60,60")
    assert (code, out) == (2, "")
    assert err == "error: crystal of weight (60, 60) has 226981 elements, above cap 100000\n"


def test_a_tampered_string_table_fails_the_crystal_suite(capsys, monkeypatch):
    # eps and phi are read off the string table, weights are not, so the
    # check phi - eps = <wt, alpha_i^vee> must see one wrong string length
    from crystalgraphs.crystal import highest_weight_crystal

    rho = highest_weight_crystal(build_root_datum("A2"), (1, 1))
    _, data = rho.string_table(1)
    assert data[1] == (0, 0, 1)
    monkeypatch.setitem(data, 1, (0, 0, 2))
    code, out, _ = run(capsys, "verify", "--type", "A2", "--suite", "crystal")
    assert code == 1
    assert out.startswith("FAIL crystal: sizes and axioms")
    assert "phi-eps mismatch at (1, 1), 1, colour 1" in out


def test_verify_identical_under_optimize_flag():
    # python -O strips assert statements, so invariants must not rely on them
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    args = ["-m", "crystalgraphs.cli", "verify", "--type", "A2", "--suite", "all", "--bound", "1,1"]
    plain = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)
    optimized = subprocess.run(
        [sys.executable, "-O", *args], env=env, capture_output=True, text=True
    )
    assert plain.returncode == 0 and optimized.returncode == 0
    assert "PASS" in plain.stdout
    assert optimized.stdout == plain.stdout


def test_cli_import_leaves_out_dataclasses_inspect_and_json():
    # dataclasses pulls in inspect, ast, dis and tokenize on every launch;
    # json is needed only by the JSON output and parser, which import it
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))

    def modules(statement):
        code = f"import sys\n{statement}\nprint(*sorted(sys.modules))"
        probe = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        return set(probe.stdout.split())

    added = modules("import crystalgraphs.cli") - modules("pass")
    assert "crystalgraphs.cli" in added
    assert added.isdisjoint({"dataclasses", "inspect", "json"})


def _kp_report(cases):
    """The KP suite report lines, given the case count of each line."""
    return [
        f"PASS R1 products collapse through the Cartan component ({cases[0]} cases)",
        f"PASS R2 cross relations through the braiding ({cases[1]} cases)",
        f"PASS R3 unitality ({cases[2]} cases)",
        f"PASS R4 adjoint pairing ({cases[3]} cases)",
        f"PASS KP1 vertex projections ({cases[4]} cases)",
        f"PASS KP2 path composition ({cases[5]} cases)",
        f"PASS KP3 orthogonal isometries ({cases[6]} cases)",
        f"PASS KP4 range decomposition ({cases[7]} cases)",
        f"PASS grading: P_v invariant, S_e of degree -d(e) ({cases[8]} cases)",
    ]


def _kp_splits(r1, r2, kp1, kp2, kp3, kp4, grading):
    """The split lines of the KP suite, given (computed, implied) of each
    certified check, in the order they are popped: grading, KP4, KP3, KP2,
    KP1, R2, R1.  R1 and KP2 also take the count of their rank-one cases."""
    return [
        f"  grading split: {grading[0]} computed, {grading[1]} implied by unique factorization"
        " and KP2",
        f"  KP4 split: {kp4[0]} computed, {kp4[1]} implied by unique factorization and KP2",
        f"  KP3 split: {kp3[0]} computed, {kp3[1]} implied by KP1, KP2, KP4 and unique"
        " factorization",
        f"  KP2 split: {kp2[0]} computed, {kp2[1]} implied by the rank-one slot lemma"
        f" ({kp2[2]} rank-one cases), the range half, idempotent P_v, the compose table and"
        " unique factorization",
        f"  KP1 split: {kp1[0]} computed, {kp1[1]} implied by adjoints of self-adjoint P_v",
        f"  R2 split: {r2[0]} computed, {r2[1]} implied by adjoints under R4 and inverse braidings",
        f"  R1 split: {r1[0]} computed, {r1[1]} implied by the rank-one slot lemma"
        f" ({r1[2]} rank-one cases) and R4",
    ]


# the lines the split lines sit on, popped from the last
SPLIT_LINES = (15, 13, 11, 9, 7, 3, 1)


def test_verify_kp_a3(capsys):
    code, out, _ = run(capsys, "verify", "--type", "A3", "--suite", "kp", "--bound", "1,1,1")
    assert code == 0
    lines = out.splitlines()
    assert [lines.pop(k) for k in SPLIT_LINES] == _kp_splits(
        (0, 12482, 400),
        (3160, 3081),
        (325, 276),
        (200, 5680, 64),
        (200, 285121),
        (72, 96),
        (224, 945),
    )
    assert lines == _kp_report([12482, 6241, 5, 79, 601, 5880, 285321, 168, 1169])


def test_verify_kp_g2(capsys):
    code, out, _ = run(capsys, "verify", "--type", "G2", "--suite", "kp", "--bound", "1,1")
    assert code == 0
    lines = out.splitlines()
    assert [lines.pop(k) for k in SPLIT_LINES] == _kp_splits(
        (0, 14792, 3136),
        (3741, 3655),
        (435, 378),
        (250, 2046, 280),
        (250, 234283),
        (56, 28),
        (278, 449),
    )
    assert lines == _kp_report([14792, 7396, 4, 86, 813, 2296, 234533, 84, 727])


def test_verify_kp_c2_at_bound_two_one(capsys):
    # the kp-c2 benchmark workload: 9 PASS lines and 23856 cases in all
    code, out, _ = run(capsys, "verify", "--type", "C2", "--suite", "kp", "--bound", "2,1")
    assert code == 0
    lines = out.splitlines()
    assert [lines.pop(k) for k in SPLIT_LINES] == _kp_splits(
        (0, 1352, 400),
        (351, 325),
        (66, 45),
        (52, 1119, 160),
        (52, 20130),
        (20, 30),
        (62, 222),
    )
    cases = [1352, 676, 4, 26, 111, 1171, 20182, 50, 284]
    assert lines == _kp_report(cases) and sum(cases) == 23856
    # no split line may read as a case count
    assert not any(line.endswith(" cases)") for line in out.splitlines() if "split:" in line)


def test_kp2_split_names_only_the_premises_that_apply(capsys):
    # bound 1 composes no pair of A1 paths, so KP2 implies only its source
    # half; the C2 (2, 1) line, which names every premise, is pinned in
    # test_verify_kp_c2_at_bound_two_one
    code, out, _ = run(capsys, "verify", "--type", "A1", "--suite", "kp", "--bound", "1")
    assert code == 0
    splits = [line for line in out.splitlines() if line.startswith("  KP2 split:")]
    assert splits == ["  KP2 split: 3 computed, 3 implied by idempotent P_v"]


def _status_counts(out):
    """(PASS lines, FAIL lines, total of the "(N cases)" counts) of a report."""
    lines = out.splitlines()
    cases = sum(
        int(line[line.rindex("(") + 1 : -len(" cases)")])
        for line in lines
        if line.endswith(" cases)")
    )
    return (
        sum(line.startswith("PASS ") for line in lines),
        sum(line.startswith("FAIL ") for line in lines),
        cases,
    )


@pytest.mark.parametrize(
    "label, bound, counts", [("G2", "1,1", (23, 0, 283331)), ("A3", "1,1,1", (45, 0, 325309))]
)
def test_verify_all_g2_and_a3(capsys, label, bound, counts):
    code, out, _ = run(capsys, "verify", "--type", label, "--suite", "all", "--bound", bound)
    assert code == 0
    assert _status_counts(out) == counts


def test_a_tampered_slot_fails_r1_and_kp2_through_the_rank_one_premise(capsys, monkeypatch):
    from crystalgraphs import soibelman

    original = soibelman.string_slot

    def tampered(m, i, j):
        # the diagonal slot T P0 in place of T of a string of length 1
        return (1, 0, 1) if (m, i, j) == (1, 1, 1) else original(m, i, j)

    monkeypatch.setattr(soibelman, "string_slot", tampered)
    code, out, _ = run(capsys, "verify", "--type", "C2", "--suite", "kp", "--bound", "2,1")
    assert code == 1
    for name in ("R1 products collapse through the Cartan component", "KP2 path composition"):
        line = next(line for line in out.splitlines() if name in line)
        assert line.startswith(f"FAIL {name}")
        assert "premise rank-one slot lemma fails" in line
    assert "R1 split" not in out and "KP2 split" not in out


@pytest.mark.parametrize(
    "argv, message",
    [
        (["braiding", "--type", "A2", "--pair", "1,0"], "--pair needs two weights separated by ';'"),
        (["braiding", "--type", "A2", "--pair", "1,0;0,x"], "--pair"),
        (["verify", "--type", "A2", "--bound", "1,x"], "--bound"),
        (["verify", "--type", "A2", "--bound", "1"], "--bound"),
        (["verify", "--type", "A2", "--word", "1,x"], "--word"),
        (["verify", "--type", "A2", "--colours", "1,x"], "--colours"),
    ],
)
def test_cli_errors_name_their_flag(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err
    assert "invalid literal" not in err and "unpack" not in err


@pytest.mark.parametrize("label", ["A2", "B2", "C2", "A3"])
def test_kp_report_does_not_depend_on_the_reduced_word(capsys, label):
    datum = build_root_datum(label)
    longest = weyl_group(datum).longest_word
    words = dict.fromkeys([longest] + [braid_moved_word(datum, longest, seed) for seed in (0, 1)])
    # a rank-2 w0 has exactly two reduced words, so both walks end on the other one
    assert len(words) == (2 if datum.rank == 2 else 3)
    argv = ["verify", "--type", label, "--suite", "kp", "--bound", ",".join(["1"] * datum.rank)]
    outputs = set()
    for word in words:
        code, out, _ = run(capsys, *argv, "--word", ",".join(map(str, word)))
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_verify_json_splits_computed_and_implied(capsys):
    code, out, _ = run(capsys, "verify", "--type", "A2", "--suite", "all", "--emit", "json")
    assert code == 0
    certified = {
        "R1": (0, 450),
        "R2": (120, 105),
        "KP1": (28, 15),
        "KP2": (24, 116),
        "KP3": (24, 793),
        "KP4": (12, 6),
        "grading:": (30, 23),
    }
    # the rank-one cases of R1 and KP2 are not part of their case counts
    lemma = {"R1": 100, "KP2": 16}
    for check in json.loads(out)["checks"]:
        tag = check["name"].split()[0]
        assert check["computed"] + check["implied"] == check["cases"]
        assert (check["computed"], check["implied"]) == certified.get(tag, (check["cases"], 0))
        assert check["lemma_cases"] == lemma.get(tag, 0)


def test_verify_json_counts_each_checks_failed_cases(capsys, monkeypatch):
    from crystalgraphs.hrgraph import colour_set, graph_of
    from crystalgraphs.soibelman import SoibelmanModel

    argv = ["verify", "--type", "C2", "--suite", "kp", "--bound", "1,1", "--emit", "json"]
    code, out, _ = run(capsys, *argv)
    assert code == 0 and all(check["failed"] == 0 for check in json.loads(out)["checks"])
    # S_e of one edge doubled: its KP3 diagonal and KP4 at its range fail
    c2 = build_root_datum("C2")
    edge = graph_of(colour_set(c2, c2.fundamental_weights)).paths((0, 1))[0]
    original = SoibelmanModel.path_operator

    def doubled(self, colours, e):
        s = original(self, colours, e)
        return s + s if e == edge else s

    monkeypatch.setattr(SoibelmanModel, "path_operator", doubled)
    code, out, _ = run(capsys, *argv)
    assert code == 1
    failed = {check["name"].split()[0]: check["failed"] for check in json.loads(out)["checks"]}
    assert failed == {
        "R1": 0, "R2": 0, "R3": 0, "R4": 0, "KP1": 0, "KP2": 0, "KP3": 1, "KP4": 1, "grading:": 0
    }


@pytest.mark.parametrize(
    "argv",
    [
        ["--type", "A2", "--colours", "1,0;0,1"],
        ["--type", "C2", "--colours", "1,0;0,1;1,0"],
        ["--type", "G2"],
    ],
)
def test_crystal_text_numbers_edge_targets_like_the_dot_output(capsys, argv):
    code, text, _ = run(capsys, "crystal", *argv, "--emit", "text")
    assert code == 0
    text_edges = set()
    for row, line in enumerate(text.splitlines(), start=1):
        fields = line.split()
        assert fields[0] == str(row)
        for arrow, target in zip(fields[2::2], fields[3::2]):
            assert target.isdigit(), line
            text_edges.add((row, int(arrow.strip("->")), int(target)))
    code, dot, _ = run(capsys, "crystal", *argv, "--emit", "dot")
    assert code == 0
    dot_edges = {
        (int(a), int(i), int(b))
        for a, b, i in re.findall(r'n(\d+) -> n(\d+) \[color="\w+", label="(\d+)"\]', dot)
    }
    assert dot_edges and text_edges == dot_edges


@pytest.mark.parametrize("argv", [["--type", "A2", "--colours", "1,0;0,1"], ["--type", "G2"]])
def test_crystal_text_rows_end_without_a_space(capsys, argv):
    # rows with no f-edge, such as "3 (0,0)" on A2, once ended in a space
    code, text, _ = run(capsys, "crystal", *argv, "--emit", "text")
    assert code == 0 and text.endswith("\n")
    assert not any(line.endswith(" ") for line in text.splitlines())


def test_verify_json_records_each_checks_elapsed_seconds(capsys):
    argv = ["verify", "--type", "A2", "--suite", "kp"]
    code, out, _ = run(capsys, *argv, "--emit", "json")
    assert code == 0
    checks = json.loads(out)["checks"]
    assert len(checks) == 9
    assert all(isinstance(c["elapsed_s"], float) and c["elapsed_s"] >= 0 for c in checks)
    # the text report carries no timings
    code, text, _ = run(capsys, *argv)
    assert code == 0 and "elapsed" not in text and len(text.splitlines()) == 16


def test_a_changed_braiding_entry_fails_the_braiding_suite_at_its_first_case(capsys, monkeypatch):
    from crystalgraphs import cli

    argv = ["verify", "--type", "A2", "--suite", "braiding"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    cases = out.split("(")[1].split()[0]
    original = cli.pair_braiding

    def changed(datum, lam, lamp):
        table = original(datum, lam, lamp)
        if (lam, lamp) != ((1, 0), (1, 0)):
            return table
        # f_1 of the top (1, 1) is (2, 1), so the first failing case is the
        # top at colour 1; (2, 1) at colours 1 and 2 fails too, later
        assert table[(2, 1)] == (2, 1)
        return {**table, (2, 1): None}

    monkeypatch.setattr(cli, "pair_braiding", changed)
    code, out, _ = run(capsys, *argv)
    assert code == 1
    assert out == (
        f"FAIL braiding: morphism, braid, longest-word ({cases} cases): "
        "morphism property at (1, 0),(1, 0),(1, 1),1; "
        "morphism property at (1, 0),(1, 0),(2, 1),1; "
        "morphism property at (1, 0),(1, 0),(2, 1),2\n"
    )


def test_a_redirected_composite_fails_its_factorization_split(capsys, monkeypatch):
    from crystalgraphs.hrgraph import HigherRankGraph, colour_set, graph_of

    a2 = build_root_datum("A2")
    paths = graph_of(colour_set(a2, a2.fundamental_weights)).paths((1, 1))
    # the pair that composes to paths[2] now lands on paths[1], so paths[1]
    # (first in order) has two factorizations and paths[2] none
    original = HigherRankGraph.compose

    def redirected(self, eprime, e):
        out = original(self, eprime, e)
        return paths[1] if (eprime.degree, out) == ((1, 0), paths[2]) else out

    monkeypatch.setattr(HigherRankGraph, "compose", redirected)
    code, out, _ = run(capsys, "verify", "--type", "A2", "--suite", "graph", "--bound", "1,1")
    assert code == 1
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == [
        f"FAIL factorization (1, 0)+(0, 1) ({len(paths)} cases): "
        f"path {paths[1]} has 2 factorizations; path {paths[2]} has 0 factorizations"
    ]


def test_a_thinned_slice_fails_no_sources_at_its_first_uncovered_vertex(capsys, monkeypatch):
    from crystalgraphs.hrgraph import HigherRankGraph, colour_set, graph_of

    a2 = build_root_datum("A2")
    graph = graph_of(colour_set(a2, a2.fundamental_weights))
    first = graph.vertices[0]
    original = HigherRankGraph.paths

    def thinned(self, degree):
        paths = original(self, degree)
        if tuple(degree) != (1, 0):
            return paths
        return tuple(e for e in paths if first not in (e.source, self.range(e)))

    monkeypatch.setattr(HigherRankGraph, "paths", thinned)
    kept = graph.paths((1, 0))
    uncovered = [
        v
        for v in graph.vertices
        if v not in {e.source for e in kept} or v not in {graph.range(e) for e in kept}
    ]
    assert uncovered[0] == first
    code, out, _ = run(capsys, "verify", "--type", "A2", "--suite", "graph", "--bound", "1,1")
    assert code == 1
    # a failed line counts the uncovered vertices on top of the paths
    assert (
        f"FAIL no sources/sinks at degree (1, 0) ({len(kept) + len(uncovered)} cases): "
        f"vertex {first} has no path"
    ) in out.splitlines()
