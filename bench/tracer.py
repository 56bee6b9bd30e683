"""Per-layer tracing of one crystalgraphs CLI launch.

    python3 bench/tracer.py SPANS SUMMARY <crystalgraphs CLI arguments>

The tracer wraps public functions of each layer from outside the library,
runs the CLI in this process, and on exit writes every span to SPANS and the
per-layer metrics to SUMMARY as one JSON object, together with the names of
any layer functions this version of the library no longer has.  A span is
(name, start, end, parent); a layer's self time is its spans' time minus the
time of their child spans.  Spans live in compact arrays until the run ends.

SPANS holds one JSON header line ({"names": [...], "spans": n}) followed by
four native arrays of n items each: name index (uint16), parent span index
(int64, -1 at the root), start and end (float64 seconds, perf_counter).
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import Counter


def _terms(op) -> int:
    return len(getattr(op, "terms", ()))


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.kind = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: Counter[str] = Counter()
        self.generator_terms_max = 0
        self.crystals: dict[int, object] = {}  # id -> crystal, kept alive so ids stay unique
        self.tensor_keys: set = set()
        self.missing: list[str] = []  # layer functions absent from this version

    def code(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn, after=None):
        """A span-recording wrapper; after(span, args, result) runs on return."""
        code = self.code(name)
        kind, parent, start, end, stack = self.kind, self.parent, self.start, self.end, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = len(start)
            kind.append(code)
            parent.append(stack[-1] if stack else -1)
            start.append(clock())
            end.append(0.0)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                end[span] = clock()
            if after is not None:
                after(span, args, result)
            return result

        return wrapper

    # hooks run after a wrapped call returns ------------------------------

    def _after_mul(self, span, args, result) -> None:
        self.counts["mul_term_pairs"] += _terms(args[0]) * _terms(args[1])
        self.counts["mul_out_terms"] += _terms(result)

    def _after_generator(self, span, args, result) -> None:
        self.generator_terms_max = max(self.generator_terms_max, _terms(result))

    def _after_crystal(self, span, args, result) -> None:
        # A crystal object never returned before was built by this call.
        if id(result) not in self.crystals:
            self.crystals[id(result)] = result
            self.kind[span] = self.code("crystal.build")

    def _after_tensor_of(self, span, args, result) -> None:
        datum, weights = args[0], args[1]
        self.tensor_keys.add((datum.label, tuple(tuple(w) for w in weights)))

    def install(self) -> None:
        """Wrap the layer boundaries of the already imported package."""
        import crystalgraphs
        from crystalgraphs import braiding, cli, crystal, hrgraph, rootdata, soibelman, toeplitz

        counts = self.counts
        datum_hash = rootdata.RootDatum.__hash__

        def counted_hash(datum):
            counts["datum_hash"] += 1
            return datum_hash(datum)

        rootdata.RootDatum.__hash__ = counted_hash

        methods = [
            (toeplitz.OperatorElement, "__mul__", "toeplitz.mul", self._after_mul),
            (toeplitz.OperatorElement, "tensor", "toeplitz.tensor", None),
            (toeplitz.OperatorElement, "__add__", "toeplitz.add", None),
            (soibelman.SoibelmanModel, "pi0_generator", "soibelman.generator", self._after_generator),
            (soibelman.SoibelmanModel, "projection", "soibelman.projection", None),
            (soibelman.SoibelmanModel, "path_operator", "soibelman.path_operator", None),
            (soibelman.SoibelmanModel, "verify_relations", "soibelman.relations", None),
            (soibelman.SoibelmanModel, "verify_graph_algebra", "soibelman.graph_algebra", None),
            (crystal.TensorCrystal, "decomposition", "crystal.decomposition", None),
            (crystal.TensorCrystal, "standard_map", "crystal.standard_map", None),
            (hrgraph.HigherRankGraph, "paths", "hrgraph.paths", None),
            (hrgraph.HigherRankGraph, "range", "hrgraph.range", None),
            (hrgraph.HigherRankGraph, "compose", "hrgraph.compose", None),
            (hrgraph.HigherRankGraph, "export_json", "hrgraph.export", None),
        ]
        for owner, attr, name, after in methods:
            if not hasattr(owner, attr):
                self.missing.append(f"{owner.__name__}.{attr}")
                continue
            setattr(owner, attr, self.wrap(name, getattr(owner, attr), after))

        functions = [
            (crystal, "highest_weight_crystal", "crystal.lookup", self._after_crystal),
            (crystal, "cartan_project", "crystal.cartan_project", None),
            (crystal, "tensor_of", "crystal.tensor_of", self._after_tensor_of),
            (braiding, "right_end_map", "braiding.right_end_map", None),
            (braiding, "pair_braiding", "braiding.pair_braiding", None),
            (cli, "main", "cli.main", None),
        ]
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == crystalgraphs.__name__]
        for home, attr, name, after in functions:
            if not hasattr(home, attr):
                self.missing.append(f"{home.__name__}.{attr}")
                continue
            original = getattr(home, attr)
            wrapped = self.wrap(name, original, after)
            # Rebind every module-level name that refers to the function.
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)

    # results --------------------------------------------------------------

    def per_name(self) -> dict[str, tuple[int, float, float]]:
        """Span name -> (calls, total seconds, self seconds)."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        own = [0.0] * len(self.names)
        for i in range(n):
            k = self.kind[i]
            duration = self.end[i] - self.start[i]
            calls[k] += 1
            total[k] += duration
            own[k] += duration - child[i]
        return {name: (calls[k], total[k], own[k]) for k, name in enumerate(self.names)}

    def metrics(self) -> dict[str, float]:
        spans = self.per_name()

        def calls(name):
            return spans.get(name, (0, 0.0, 0.0))[0]

        def total(name):
            return spans.get(name, (0, 0.0, 0.0))[1]

        def own(name):
            return spans.get(name, (0, 0.0, 0.0))[2]

        pairs = self.counts["mul_term_pairs"]
        out_terms = self.counts["mul_out_terms"]
        tensor_calls = calls("crystal.tensor_of")
        return {
            "toeplitz.mul_calls": calls("toeplitz.mul"),
            "toeplitz.mul_term_pairs": pairs,
            "toeplitz.mul_out_terms": out_terms,
            "toeplitz.mul_useful_ratio": out_terms / pairs if pairs else 0.0,
            "toeplitz.mul_self_s": own("toeplitz.mul"),
            "toeplitz.mul_pairs_per_s": pairs / own("toeplitz.mul") if pairs else 0.0,
            "toeplitz.tensor_self_s": own("toeplitz.tensor"),
            "toeplitz.add_self_s": own("toeplitz.add"),
            "soibelman.generator_calls": calls("soibelman.generator"),
            "soibelman.generator_self_s": own("soibelman.generator"),
            "soibelman.generator_terms_max": self.generator_terms_max,
            "soibelman.projection_self_s": own("soibelman.projection"),
            "soibelman.path_operator_self_s": own("soibelman.path_operator"),
            "soibelman.relations_s": total("soibelman.relations"),
            "soibelman.graph_algebra_s": total("soibelman.graph_algebra"),
            "crystal.build_calls": calls("crystal.build"),
            "crystal.build_self_s": own("crystal.build"),
            "crystal.lookup_self_s": own("crystal.lookup"),
            "crystal.decomposition_calls": calls("crystal.decomposition"),
            "crystal.decomposition_self_s": own("crystal.decomposition"),
            "crystal.standard_map_calls": calls("crystal.standard_map"),
            "crystal.standard_map_self_s": own("crystal.standard_map"),
            "crystal.cartan_project_calls": calls("crystal.cartan_project"),
            "crystal.cartan_project_self_s": own("crystal.cartan_project"),
            "crystal.tensor_of_calls": tensor_calls,
            "crystal.tensor_of_self_s": own("crystal.tensor_of"),
            "crystal.tensor_of_hit_ratio": (
                1 - len(self.tensor_keys) / tensor_calls if tensor_calls else 0.0
            ),
            "rootdata.datum_hash_calls": self.counts["datum_hash"],
            "braiding.right_end_map_calls": calls("braiding.right_end_map"),
            "braiding.right_end_map_self_s": own("braiding.right_end_map"),
            "braiding.pair_braiding_self_s": own("braiding.pair_braiding"),
            "hrgraph.paths_self_s": own("hrgraph.paths"),
            "hrgraph.range_calls": calls("hrgraph.range"),
            "hrgraph.range_self_s": own("hrgraph.range"),
            "hrgraph.compose_calls": calls("hrgraph.compose"),
            "hrgraph.compose_self_s": own("hrgraph.compose"),
            "hrgraph.export_self_s": own("hrgraph.export"),
            "cli.main_self_s": own("cli.main"),
            "trace.spans": len(self.start),
        }

    def write(self, spans_path: str, summary_path: str) -> None:
        with open(spans_path, "wb") as handle:
            header = {"names": self.names, "spans": len(self.start)}
            handle.write(json.dumps(header).encode() + b"\n")
            for column in (self.kind, self.parent, self.start, self.end):
                column.tofile(handle)
        with open(summary_path, "w", encoding="utf-8") as handle:
            json.dump({"metrics": self.metrics(), "missing": self.missing}, handle)


def main(argv: list[str]) -> int:
    spans_path, summary_path, *cli_args = argv
    tracer = Tracer()
    tracer.install()
    from crystalgraphs import cli

    code = cli.main(cli_args)
    sys.stdout.flush()
    tracer.write(spans_path, summary_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
