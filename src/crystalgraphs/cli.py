"""Command-line front end: crystal graphs, braiding tables, higher-rank
graphs, and the verification suites.

Output is deterministic for fixed flags, apart from the per-check
``elapsed_s`` timings of ``verify --emit json``.  Exit codes: 0 success, 1 a
verification suite failed, 2 usage errors, including an --out file that
cannot be written.
"""

from __future__ import annotations

import argparse
import sys
from itertools import product as iter_product
from typing import TYPE_CHECKING, Iterator

from .braiding import longest_permutation_word, pair_braiding, sigma_word
from .crystal import highest_weight_crystal, over_cap, tensor_of
from .hrgraph import Degree, colour_set, dot_colour, graph_of
from .memo import cache_stats
from .rootdata import build_root_datum, weyl_dim, weyl_group

if TYPE_CHECKING:  # only verify builds a report
    from .report import VerificationReport

def _parse_ints(text: str, flag: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{flag} needs comma-separated integers, got {text!r}"
        ) from None


def _parse_weight(text: str, rank: int, flag: str) -> tuple[int, ...]:
    coords = _parse_ints(text, flag)
    if len(coords) != rank:
        raise argparse.ArgumentTypeError(
            f"{flag}: weight {text!r} has {len(coords)} coordinates, expected {rank}"
        )
    return coords


def _parse_weights(text: str, rank: int, flag: str) -> tuple[tuple[int, ...], ...]:
    return tuple(_parse_weight(part, rank, flag) for part in text.split(";"))


def _parse_bound(text: str, n: int) -> tuple[int, ...]:
    bound = _parse_ints(text, "--bound")
    if len(bound) != n or any(x < 0 for x in bound):
        raise argparse.ArgumentTypeError(
            f"--bound {text!r} needs {n} nonnegative entries"
        )
    return bound


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _numbered(crystal_like) -> tuple[list, dict]:
    """The elements in order, and each one's row number from 1, shared by
    the DOT and text outputs."""
    elements = list(crystal_like.elements())
    return elements, {b: k for k, b in enumerate(elements, start=1)}


def _crystal_dot(crystal_like, name: str) -> str:
    lines = [f"digraph {name} {{"]
    elements, labels = _numbered(crystal_like)
    for b in elements:
        weight = ",".join(str(x) for x in crystal_like.weight(b))
        lines.append(f'  n{labels[b]} [label="{labels[b]}: ({weight})"];')
    for i in crystal_like.datum.colours:
        colour = dot_colour(i)
        for b in elements:
            image = crystal_like.f(i, b)
            if image is not None:
                lines.append(
                    f'  n{labels[b]} -> n{labels[image]} [color="{colour}", label="{i}"];'
                )
    lines.append("}")
    return "\n".join(lines) + "\n"


def _crystal_text(crystal_like) -> str:
    lines = []
    elements, labels = _numbered(crystal_like)
    for b in elements:
        weight = ",".join(str(x) for x in crystal_like.weight(b))
        fields = [f"{labels[b]} ({weight})"]
        for i in crystal_like.datum.colours:
            image = crystal_like.f(i, b)
            if image is not None:
                fields.append(f"-{i}-> {labels[image]}")
        lines.append(" ".join(fields))
    return "\n".join(lines) + "\n"


def _braiding_table(datum, lam, lamp) -> str:
    table = pair_braiding(datum, lam, lamp)
    crystal = highest_weight_crystal(datum, lam)
    other = highest_weight_crystal(datum, lamp)
    lines = []
    for i in crystal.elements():
        for j in other.elements():
            image = table.get((i, j))
            if image is None:
                lines.append(f"s(a{i} (x) b{j}) = 0")
            else:
                k, l = image
                lines.append(f"s(a{i} (x) b{j}) = b{k} (x) a{l}")
    return "\n".join(lines) + "\n"


def _run_verify(args, datum, colours) -> tuple[VerificationReport, str]:
    # only verify pays for the operator layer and the report
    from .report import VerificationReport
    from .soibelman import SoibelmanModel

    cs = colour_set(datum, colours)
    bound = args.bound or (1,) * cs.n
    # built whenever --word is given, so every suite rejects a word that is
    # not reduced for w0; only then do suites other than kp need W
    kp = args.suite in ("kp", "all")
    model = SoibelmanModel(datum, args.word) if kp or args.word else None
    report = VerificationReport()
    if args.suite in ("crystal", "all"):
        report.certify("crystal: sizes and axioms", _crystal_suite(datum, cs))
    if args.suite in ("braiding", "all"):
        report.certify("braiding: morphism, braid, longest-word", _braiding_suite(datum, cs))
    if args.suite in ("graph", "all"):
        graph = graph_of(cs)
        for m, n in _degree_splits(graph, bound):
            report.extend(graph.check_factorization(m, n))
        report.extend(graph.degree_counts_and_sources(bound))
    if kp:
        report.extend(model.verify_suite(cs, bound))
    if args.emit == "json":
        return report, report.to_json(caches=cache_stats(), peak_rss_mb=_peak_rss_mb()) + "\n"
    return report, str(report) + "\n"


def _peak_rss_mb() -> float | None:
    """The process's peak resident set size in MiB, or None where the
    platform has no ``resource`` module (Windows)."""
    try:
        import resource  # only JSON output reads the peak
    except ImportError:
        return None
    # macOS reports ru_maxrss in bytes, Linux in KiB
    unit = 1024 * 1024 if sys.platform == "darwin" else 1024
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / unit, 2)


def _degree_splits(graph, bound) -> Iterator[tuple[Degree, Degree]]:
    """Every split m + n of every nonzero degree up to bound."""
    for total in graph.nonzero_degrees(bound):
        for m in iter_product(*(range(t + 1) for t in total)):
            yield m, tuple(t - a for t, a in zip(total, m))


def _crystal_suite(datum, cs) -> Iterator[str]:
    """One result per case: the size of each B(lam), then each (b, i)."""
    for lam in list(cs.colours) + [cs.rho]:
        crystal = highest_weight_crystal(datum, lam)
        yield "" if crystal.size == weyl_dim(datum, lam) else f"size of B({lam})"
        for b in crystal.elements():
            for i in datum.colours:
                image = crystal.f(i, b)
                if image is not None and crystal.e(i, image) != b:
                    yield f"crystal axiom at {lam}, {b}, colour {i}"
                elif crystal.phi(i, b) - crystal.eps(i, b) != datum.pairing(
                    crystal.weight(b), i
                ):
                    yield f"phi-eps mismatch at {lam}, {b}, colour {i}"
                else:
                    yield ""


def _braiding_suite(datum, cs) -> Iterator[str]:
    """One result per case: the morphism property at each (t, i) of every
    pair table, then the braid relation and the longest-word criterion at
    each element of every triple."""
    for lam, lamp in iter_product(cs.colours, cs.colours):
        source = tensor_of(datum, (lam, lamp))
        target = tensor_of(datum, (lamp, lam))
        table = pair_braiding(datum, lam, lamp)
        for t in source.elements():
            for i in datum.colours:
                lhs = table.get(t)
                lhs = None if lhs is None else target.f(i, lhs)
                rhs = table.get(source.f(i, t))
                yield "" if lhs == rhs else f"morphism property at {lam},{lamp},{t},{i}"
    word_a = longest_permutation_word(3)
    for weights in iter_product(cs.colours, repeat=3):
        tc = tensor_of(datum, weights)
        for t in tc.elements():
            lhs = sigma_word(tc, word_a, t)
            rhs = sigma_word(tc, (2, 1, 2), t)
            yield "" if lhs == rhs else f"braid relation at {weights}, {t}"
            if (lhs is not None) != bool(tc.eta(t)):
                yield f"longest-word criterion at {weights}, {t}"
            else:
                yield ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="crystalgraphs",
        description="crystal combinatorics, braiding tables, higher-rank graphs, verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--type", required=True, help="Cartan type label, e.g. A2")
        p.add_argument("--out", help="write output to a file instead of stdout")

    p_crystal = sub.add_parser("crystal", help="emit a crystal graph")
    common(p_crystal)
    p_crystal.add_argument("--colours", help="weights like '1,0;0,1' (default: rho)")
    p_crystal.add_argument("--emit", choices=("dot", "text"), default="dot")

    p_braiding = sub.add_parser("braiding", help="print a braiding table")
    common(p_braiding)
    p_braiding.add_argument("--pair", required=True, help="two weights like '1,0;0,1'")

    p_graph = sub.add_parser("graph", help="emit the higher-rank graph")
    common(p_graph)
    p_graph.add_argument("--colours", help="colour weights (default: fundamentals)")
    p_graph.add_argument("--bound", help="degree bound like '1,1' (default: 2,...,2)")
    p_graph.add_argument("--emit", choices=("dot", "json"), default="dot")

    p_verify = sub.add_parser("verify", help="run verification suites")
    common(p_verify)
    p_verify.add_argument("--colours", help="colour weights (default: fundamentals)")
    p_verify.add_argument("--bound", help="degree bound (default: 1,...,1)")
    p_verify.add_argument(
        "--suite", choices=("crystal", "braiding", "graph", "kp", "all"), default="all"
    )
    p_verify.add_argument("--word", help="reduced-word override like '1,2,1'")
    p_verify.add_argument("--emit", choices=("text", "json"), default="text")

    p_info = sub.add_parser("info", help="print Weyl and graph summary data")
    common(p_info)
    p_info.add_argument("--colours", help="colour weights (default: fundamentals)")

    args = parser.parse_args(argv)
    try:
        datum = build_root_datum(args.type)
        rank = datum.rank
        if getattr(args, "colours", None):
            colours = _parse_weights(args.colours, rank, "--colours")
        else:
            colours = datum.fundamental_weights
        if getattr(args, "bound", None):
            args.bound = _parse_bound(args.bound, len(colours))
        if getattr(args, "word", None):
            args.word = _parse_ints(args.word, "--word")

        if args.command == "crystal":
            if args.colours:
                weights = colours
            else:
                weights = (datum.rho,)
            if len(weights) == 1:
                obj = highest_weight_crystal(datum, weights[0])
            else:
                obj = tensor_of(datum, weights)
            text = _crystal_dot(obj, "crystal") if args.emit == "dot" else _crystal_text(obj)
            _emit(text, args.out)
            return 0

        if args.command == "braiding":
            pair = _parse_weights(args.pair, rank, "--pair")
            if len(pair) != 2:
                raise argparse.ArgumentTypeError("--pair needs two weights separated by ';'")
            lam, lamp = pair
            _emit(_braiding_table(datum, lam, lamp), args.out)
            return 0

        if args.command == "graph":
            graph = graph_of(colour_set(datum, colours))
            bound = args.bound or (2,) * len(colours)
            text = (
                graph.export_json(bound) + "\n"
                if args.emit == "json"
                else graph.export_dot(bound)
            )
            _emit(text, args.out)
            return 0

        if args.command == "verify":
            report, text = _run_verify(args, datum, colours)
            _emit(text, args.out)
            return 0 if report.passed else 1

        if args.command == "info":
            # the W data are closed forms; the graph is built last, and not
            # at all when B(rho_C) is over the size cap
            group = weyl_group(datum)
            w0 = ",".join(str(i) for i in group.longest_word)
            lines = [
                f"type {datum.label}",
                f"|W| = {group.order}",
                f"longest word length = {len(group.longest_word)}",
                f"w0 = {w0}",
                f"colours = {';'.join(','.join(str(x) for x in c) for c in colours)}",
            ]
            cs = colour_set(datum, colours)
            reason = over_cap(datum, cs.rho)
            if reason is not None:
                lines.append(f"vertices = not built: {reason}")
            else:
                lines.append(f"vertices = {len(graph_of(cs).vertices)}")
            _emit("\n".join(lines) + "\n", args.out)
            return 0
    except (ValueError, OSError, argparse.ArgumentTypeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
