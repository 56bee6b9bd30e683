import re
from pathlib import Path

from crystalgraphs import cli
from crystalgraphs.braiding import pair_braiding
from crystalgraphs.crystal import TensorCrystal, highest_weight_crystal, tensor_of
from crystalgraphs.hrgraph import colour_set, graph_of
from crystalgraphs.memo import cache_stats, clear_caches
from crystalgraphs.rootdata import build_root_datum
from crystalgraphs.soibelman import SoibelmanModel

A2 = build_root_datum("A2")

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "crystalgraphs"

TABLES = {
    "crystalgraphs.rootdata.build_root_datum",
    "crystalgraphs.rootdata._weyl_dim",
    "crystalgraphs.rootdata.weyl_group",
    "crystalgraphs.crystal._build_crystal",
    "crystalgraphs.crystal._tensor_of",
    "crystalgraphs.crystal._walk",
    "crystalgraphs.hrgraph.ColourSet._weight_of",
    "crystalgraphs.hrgraph.HigherRankGraph._slice",
    "crystalgraphs.hrgraph.graph_of",
    "crystalgraphs.soibelman.SoibelmanModel._generator_table",
    "crystalgraphs.soibelman.SoibelmanModel._rank_one",
    "crystalgraphs.soibelman.SoibelmanModel._projection",
}
# Called once per run, or not at all, by `verify`.
UNREUSED = {
    "crystalgraphs.rootdata.build_root_datum",
    "crystalgraphs.rootdata.weyl_group",
    "crystalgraphs.hrgraph.graph_of",
}


def test_counters_clear_and_cold_rerun(capsys):
    argv = ["verify", "--type", "A2", "--suite", "all", "--bound", "1,1"]
    clear_caches()
    assert cli.main(argv) == 0
    first = capsys.readouterr().out
    stats = cache_stats()
    assert set(stats) == TABLES
    for name, (hits, misses, size) in stats.items():
        assert size == misses
        if name not in UNREUSED:
            assert hits > 0, name
    crystal = highest_weight_crystal(A2, (1, 1))

    clear_caches()
    assert all(entry == (0, 0, 0) for entry in cache_stats().values())
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == first
    # no identity-keyed table kept an entry for an object built before the clear
    assert highest_weight_crystal(A2, (1, 1)) is not crystal


def test_repeated_suites_reuse_one_graph():
    c2 = build_root_datum("C2")
    colours = colour_set(c2, c2.fundamental_weights)
    model = SoibelmanModel(c2)
    clear_caches()
    slices = []
    for _ in range(4):
        assert model.verify_suite(colours, (1, 1)).passed
        slices.append(cache_stats()["crystalgraphs.hrgraph.HigherRankGraph._slice"][2])
    assert slices == [3] * 4


def test_list_arguments_hit_the_tuple_entries():
    assert highest_weight_crystal(A2, [1, 1]) is highest_weight_crystal(A2, (1, 1))
    assert tensor_of(A2, [[1, 0], [0, 1]]) is tensor_of(A2, ((1, 0), (0, 1)))
    assert pair_braiding(A2, [1, 0], [0, 1]) is pair_braiding(A2, (1, 0), (0, 1))
    model = SoibelmanModel(A2)
    assert model.pi0_generator([1, 0], 2, "f") is model.pi0_generator((1, 0), 2, "f")
    graph = graph_of(colour_set(A2, A2.fundamental_weights))
    assert graph.paths([1, 1]) == graph.paths((1, 1))


def test_every_cache_goes_through_the_memo_layer():
    pattern = re.compile(
        r"lru_cache|cached_property|functools\.cache\b|from functools import[^\n]*\bcache\b"
    )
    assert (PACKAGE / "memo.py").is_file()
    offenders = [
        path.name
        for path in PACKAGE.glob("*.py")
        if path.name != "memo.py" and pattern.search(path.read_text(encoding="utf-8"))
    ]
    assert offenders == []


def test_kp_builds_no_crystal_for_a_weight_sum_only_r1_reads(capsys):
    # R1 multiplies no products and reads no B(lam+lam'), so of the sums the
    # suite builds only those the graph at bound (2, 1) needs
    c2 = build_root_datum("C2")
    clear_caches()
    assert cli.main(["verify", "--type", "C2", "--suite", "kp", "--bound", "2,1"]) == 0
    capsys.readouterr()
    built = cache_stats()["crystalgraphs.crystal._build_crystal"]
    assert built[2] == 10
    # six over C2: 0, varpi1, varpi2, rho, 2 varpi1 and 2 varpi1 + varpi2;
    # four over A1: the strings B(0)..B(3) whose tensor products the rank-one
    # slot lemma reads its strings from
    for lam in [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (2, 1)]:
        highest_weight_crystal(c2, lam)
    for m in range(4):
        highest_weight_crystal(build_root_datum("A1"), (m,))
    hits, misses, entries = cache_stats()["crystalgraphs.crystal._build_crystal"]
    assert (hits, misses, entries) == (built[0] + 10, built[1], 10)


def test_every_walk_starts_at_a_product(monkeypatch):
    # every matching in the package, the graph's vertices included, is read
    # off a product of irreducible crystals, never off a crystal B(lam)
    from crystalgraphs import crystal as crystal_module

    walk = crystal_module._walk
    sources = []

    def recording(source, top, target):
        sources.append(source)
        return walk(source, top, target)

    monkeypatch.setattr(crystal_module, "_walk", recording)
    runs = [("C2", None, (2, 1)), ("A2", ((2, 0), (0, 1)), (1, 1))]
    for label, colours, bound in runs:
        datum = build_root_datum(label)
        cs = colour_set(datum, colours or datum.fundamental_weights)
        clear_caches()
        graph_of(cs)
        assert SoibelmanModel(datum).verify_suite(cs, bound).passed
    assert sources
    assert {type(source) for source in sources} == {TensorCrystal}
