"""The text format of a report, rendered from its JSON-ready dict."""


def _fmt(value):
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, list):
        return "(" + ", ".join(_fmt(v) for v in value) + ")"
    return str(value)


def _render_checks(checks, lines):
    if not checks:
        return
    lines.append("checks:")
    for c in checks:
        tag = {"pass": "pass", "fail": "FAIL", "not_applicable": "not applicable"}[c["status"]]
        field = f" [{c['field']}]" if c["field"] else ""
        lines.append(f"  [{tag}] {c['id']}{field}: {c['detail']}")


def render_text(report: dict) -> str:
    kind = report["kind"]
    lines = [f"== {kind} analysis: {report['input']}"]
    if kind == "complex":
        lines.append(
            f"vertices: {report['n_vertices']}   facets: {report['n_facets']}"
            f"   dimension: {_fmt(report.get('dimension'))}"
            f"   pure: {_fmt(report.get('pure'))}   flag: {_fmt(report.get('flag'))}"
        )
        lines.append(f"f-vector: {_fmt(report.get('f_vector'))}")
        lines.append(f"h-vector: {_fmt(report.get('h_vector'))}")
        lines.append(
            f"height: {_fmt(report.get('height'))}"
            f"   multiplicity: {_fmt(report.get('multiplicity'))}"
            f"   max generator degree: {_fmt(report.get('max_generator_degree'))}"
        )
        nf = report.get("minimal_nonfaces")
        if nf is not None:
            lines.append("minimal nonfaces: " + (" ".join(",".join(f) for f in nf) or "-"))
        for fname, fr in (report.get("fields") or {}).items():
            lines.append(
                f"[{fname}] Cohen-Macaulay: {_fmt(fr['cohen_macaulay'])}"
                f"   Gorenstein: {_fmt(fr['gorenstein'])}"
                f"   homology sphere: {_fmt(fr['homology_sphere'])}"
            )
            wit = fr["regularity_witness"]
            lines.append(
                f"[{fname}] regularity: {fr['regularity']}"
                f"   witness: W={{{','.join(wit['vertices'])}}} index {wit['index']}"
                f"   reduced betti: {_fmt(fr['reduced_betti'])}"
            )
        lines.append(f"normal: {_fmt(report.get('normal'))}")
    elif kind == "arrangement":
        lines.append(
            f"variables: {report['n_vars']}   components: {report['n_components']}"
            f"   heights: {_fmt(report['heights'])}   unmixed: {_fmt(report['unmixed'])}"
        )
        lines.append(
            f"height: {_fmt(report['height'])}   multiplicity: {report['multiplicity']}"
            f"   derksen-sidman bound: {report['derksen_sidman_bound']}"
            f"   sections applied: {report['sections_applied']}"
        )
    elif kind == "lines":
        lines.append(
            f"ambient: P^{report['ambient_dim']}   lines: {report['n_lines']}"
            f"   intersections: {report['n_intersections']}"
            f"   triple-point free: {_fmt(report['triple_point_free'])}"
        )
        if report["offending_point"]:
            lines.append(f"offending point: {report['offending_point']}")
        lines.append(
            f"genus: {_fmt(report['genus'])}   height: {_fmt(report['height'])}"
            f"   3-edge-connected: {_fmt(report['three_edge_connected'])}"
            f"   verdict: {_fmt(report['verdict'])}"
        )
    elif kind == "graph":
        lines.append(
            f"vertices: {report['n_vertices']}   edges: {report['n_edges']}"
            f"   min degree: {_fmt(report['min_degree'])}"
        )
        lines.append(
            f"kappa: {_fmt(report['vertex_connectivity'])}"
            f"   lambda: {_fmt(report['edge_connectivity'])}"
            f"   diameter: {_fmt(report['diameter'])}"
        )
        lines.append(f"line realizability: {report['line_realizability']}")

    dual = report.get("dual_graph")
    if dual:
        lines.append(
            f"dual graph: {dual['n_vertices']} vertices, {dual['n_edges']} edges,"
            f" kappa={_fmt(dual['vertex_connectivity'])},"
            f" lambda={_fmt(dual['edge_connectivity'])},"
            f" diameter={_fmt(dual['diameter'])}"
        )
    hirsch = report.get("hirsch")
    if hirsch:
        lines.append(
            f"hirsch: diameter {hirsch['diameter']} vs height {hirsch['height']}"
            f" -> {hirsch['verdict']}"
        )
    for w in report.get("warnings", ()):
        lines.append(f"warning: {w}")
    _render_checks(report.get("checks", ()), lines)
    return "\n".join(lines) + "\n"
