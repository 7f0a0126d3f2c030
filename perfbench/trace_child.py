"""Run one dualgraphs CLI command with the package's layers timed and counted.

Usage (from the repository root, with ``src`` on PYTHONPATH):

    python3 perfbench/trace_child.py TRACE_OUT.json <dualgraphs CLI arguments>

The report goes to stdout exactly as ``python3 -m dualgraphs.cli`` prints it;
the trace goes to TRACE_OUT.json. A layer is a module of the package. Each
function listed in ``SPANS`` is wrapped from outside the package, in every
module namespace (and class) that holds a reference to it, so calls from one
module into another are seen too.

For each group of functions (a metric such as ``homology.cm``) the trace
holds the number of calls made while no call of the same group was active,
and the time those outermost calls took. For each layer it holds its self
time: the time during which the innermost active wrapped call belongs to the
layer.
"""

from __future__ import annotations

import functools
import json
import sys
import time

perf = time.perf_counter

_t0 = perf()
import dualgraphs.cli as cli  # noqa: E402  (timed: this is cli.import_s)

IMPORT_S = perf() - _t0

from dualgraphs import (  # noqa: E402
    arrangements,
    complexes,
    graphs,
    homology,
    linalg,
    lines,
    reports,
)

Cx = complexes.SimplicialComplex

#: (layer, group, owner, attribute, kind). ``kind`` is "function" for a
#: module-level function, or "method", "classmethod", "cached_property" for a
#: class attribute. A group whose name ends in "-outer" counts only calls made
#: from outside its own layer. Groups that no metric reports are wrapped so
#: that their time counts as self time of their own layer.
SPANS = [
    ("cli", "cli.parse", complexes, "read_facet_file", "function"),
    ("cli", "cli.parse", arrangements, "read_arrangement_file", "function"),
    ("cli", "cli.parse", lines, "read_lines_file", "function"),
    ("cli", "cli.parse", graphs, "read_graph_file", "function"),
    ("reports", "reports.build", reports, "build_complex_report", "function"),
    ("reports", "reports.build", reports, "build_arrangement_report", "function"),
    ("reports", "reports.build", reports, "build_lines_report", "function"),
    ("reports", "reports.build", reports, "build_graph_report", "function"),
    ("homology", "homology.cm", homology, "is_cohen_macaulay", "function"),
    ("homology", "homology.sphere", homology, "is_homology_sphere", "function"),
    ("homology", "homology.gorenstein", homology, "is_gorenstein", "function"),
    ("homology", "homology.regularity", homology, "regularity", "function"),
    ("homology", "homology.normal", homology, "is_normal", "function"),
    ("homology", "homology.betti", homology, "reduced_betti_numbers", "function"),
    ("complexes", "complexes.link", Cx, "link", "method"),
    ("complexes", "complexes.link", Cx, "link_mask", "method"),
    ("complexes", "complexes.restrict", Cx, "restrict", "method"),
    ("complexes", "complexes.restrict", Cx, "restrict_mask", "method"),
    ("complexes", "complexes.restrict", Cx, "core", "method"),
    # Induced subcomplexes built directly by other layers (the regularity
    # sweep's restrictions); inside link/restrict it is not a new call.
    ("complexes", "complexes.restrict-outer", Cx, "_from_parent", "classmethod"),
    ("complexes", "complexes.build", Cx, "from_facets", "classmethod"),
    ("complexes", "complexes.faces", Cx, "faces", "cached_property"),
    ("complexes", "complexes.faces", Cx, "faces_by_card", "cached_property"),
    ("complexes", "complexes.faces", Cx, "f_vector", "cached_property"),
    ("complexes", "complexes.faces", Cx, "h_vector", "cached_property"),
    ("complexes", "complexes.faces", Cx, "minimal_nonfaces", "cached_property"),
    ("linalg", "linalg.rank", linalg, "rank", "function"),
    ("linalg", "linalg.rank", linalg, "rank_int_sparse", "function"),
    ("linalg", "linalg.rank", linalg, "rank_mod_p_sparse", "function"),
    ("linalg", "linalg.bareiss", linalg, "bareiss_rank", "function"),
    ("linalg", "linalg.nullspace", linalg, "nullspace", "function"),
    ("linalg", "linalg.rref", linalg, "rref", "function"),
    ("graphs", "graphs.dual_graph", graphs, "dual_graph", "function"),
    ("graphs", "graphs.dual_adjacency", graphs, "dual_adjacency", "function"),
    ("graphs", "graphs.diameter", graphs, "diameter", "function"),
    ("graphs", "graphs.connectivity", graphs, "vertex_connectivity", "function"),
    ("graphs", "graphs.connectivity", graphs, "edge_connectivity", "function"),
    ("graphs", "graphs.connectivity", graphs, "is_k_connected", "function"),
    ("graphs", "graphs.nonrevisiting", graphs, "non_revisiting_path", "function"),
    ("graphs", "graphs.forbidden", graphs, "contains_forbidden_line_graph", "function"),
    ("arrangements", "arrangements.build", arrangements.SubspaceArrangement, "__init__", "method"),
    ("arrangements", "arrangements.dual_edges", arrangements, "dual_edge_indices", "function"),
    ("arrangements", "arrangements.dual_graph", arrangements, "dual_graph", "function"),
    ("arrangements", "arrangements.section", arrangements, "generic_hyperplane_section", "function"),
    ("arrangements", "arrangements.analyze", arrangements, "analyze_arrangement", "function"),
    ("arrangements", "arrangements.check", arrangements, "check_regularity_connectivity", "function"),
    ("lines", "lines.build", lines.LineArrangement, "__init__", "method"),
    ("lines", "lines.intersection_pairs", lines.LineArrangement, "intersection_pairs", "method"),
    ("lines", "lines.intersects", lines, "intersects", "function"),
    ("lines", "lines.same_line", lines, "same_line", "function"),
    ("lines", "lines.triple_points", lines, "no_triple_points", "function"),
    ("lines", "lines.genus", lines, "genus", "function"),
    ("lines", "lines.dual_graph", lines, "dual_graph", "function"),
    ("lines", "lines.verdict", lines, "canonical_hirsch_verdict", "function"),
    ("lines", "lines.verdict", lines, "check_canonical_graph", "function"),
]


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [layer, time spent in wrapped children]
        self.group_depth: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        self.group_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}

    def wrap(self, fn, layer: str, group: str):
        outer_only = group.endswith("-outer")
        if outer_only:
            group = group[: -len("-outer")]
        self.calls.setdefault(group, 0)
        self.group_s.setdefault(group, 0.0)
        self.self_s.setdefault(layer, 0.0)
        stack = self.stack
        gdepth = self.group_depth
        gdepth.setdefault(group, 0)

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if outer_only and stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            outermost = gdepth[group] == 0
            gdepth[group] += 1
            frame = [layer, 0.0]
            stack.append(frame)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - start
                stack.pop()
                gdepth[group] -= 1
                if outermost:
                    self.calls[group] += 1
                    self.group_s[group] += dt
                self.self_s[layer] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt

        return wrapped

    def install(self):
        for layer, group, owner, attr, kind in SPANS:
            if kind == "function":
                original = getattr(owner, attr)
                wrapped = self.wrap(original, layer, group)
                for name, module in list(sys.modules.items()):
                    if name == "dualgraphs" or name.startswith("dualgraphs."):
                        for key, value in list(vars(module).items()):
                            if value is original:
                                setattr(module, key, wrapped)
                continue
            raw = owner.__dict__[attr]
            if kind == "method":
                setattr(owner, attr, self.wrap(raw, layer, group))
            elif kind == "classmethod":
                setattr(owner, attr, classmethod(self.wrap(raw.__func__, layer, group)))
            elif kind == "cached_property":
                prop = functools.cached_property(self.wrap(raw.func, layer, group))
                prop.__set_name__(owner, attr)
                setattr(owner, attr, prop)
            else:
                raise ValueError(f"unknown span kind {kind!r}")

    def summary(self, exit_code: int) -> dict:
        return {
            "exit": exit_code,
            "import_s": IMPORT_S,
            "calls": self.calls,
            "group_s": self.group_s,
            "self_s": self.self_s,
        }


def main(argv) -> int:
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    code = cli.main(cli_args)
    sys.stdout.flush()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.summary(code), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
