"""Command-line front end.

Subcommands: analyze-complex, analyze-arrangement, analyze-lines,
check-graph, generate. Exit codes: 0 success, 1 input error, 2 a --strict
run hit failed or inapplicable checks (violated hypotheses), 3 resource cap
exceeded.

Every command is a process of its own, so loading the package is part of
every run. Hence the rule: a module imports at top level only what every one
of its callers needs. Here that is ``errors``, which also holds the parser's
defaults and family names; each ``_run_*`` imports its command's modules.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import COMPLEX_FAMILIES, DEFAULT_MAX_HOCHSTER_VERTICES, GRAPH_FAMILIES
from .errors import DualGraphsError, InputError, ResourceCapError

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_STRICT = 2
EXIT_CAP = 3


def _add_common(parser):
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="output format (default text)")
    parser.add_argument("--strict", action="store_true",
                        help="exit 2 when any check fails or is inapplicable")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualgraphs",
        description="Dual graphs and homological invariants of squarefree "
                    "monomial ideals, subspace arrangements, and projective "
                    "line arrangements.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze-complex", help="analyze a facet file")
    p.add_argument("path", help="facet file (one facet per line)")
    p.add_argument("--field", action="append", default=None, metavar="q|gf:p",
                   help="coefficient field, repeatable (default q)")
    p.add_argument("--max-hochster-n", type=int, default=DEFAULT_MAX_HOCHSTER_VERTICES,
                   help="vertex cap for the 2^n regularity sweep (default 20)")
    p.add_argument("--allow-void", action="store_true",
                   help="accept an input file with no facets")
    _add_common(p)

    p = sub.add_parser("analyze-arrangement", help="analyze an arrangement JSON file")
    p.add_argument("path")
    p.add_argument("--regularity-certificate", type=int, default=None, metavar="R",
                   help="caller-certified regularity; enables the r-connectivity check")
    p.add_argument("--ds-subset", default=None, metavar="I,J,...",
                   help="1-based component subset for the Derksen-Sidman bound")
    p.add_argument("--section", type=int, default=0, metavar="K",
                   help="apply K generic hyperplane sections first (seeded)")
    p.add_argument("--seed", type=int, default=0, help="PRNG seed (default 0)")
    _add_common(p)

    p = sub.add_parser("analyze-lines", help="analyze a line arrangement JSON file")
    p.add_argument("path")
    _add_common(p)

    p = sub.add_parser("check-graph", help="analyze a graph edge-list file")
    p.add_argument("path")
    _add_common(p)

    p = sub.add_parser("generate", help="write a named family to a file")
    p.add_argument("family",
                   help="complex families: %s; graph families: %s"
                        % (", ".join(COMPLEX_FAMILIES), ", ".join(GRAPH_FAMILIES)))
    p.add_argument("parameter", type=int, nargs="?", default=None)
    p.add_argument("--out", default=None, help="output path (default stdout)")
    return parser


def _finish(report: dict, args) -> int:
    """Print ``report`` in the chosen format; return the exit code."""
    from .reports import STATUS_FAIL, STATUS_NA, render_text

    if args.format == "json":
        print(json.dumps(report, indent=2))
    else:
        print(render_text(report), end="")
    if not args.strict:
        return EXIT_OK
    bad = [c for c in report.get("checks", ()) if c["status"] in (STATUS_FAIL, STATUS_NA)]
    if bad or report.get("warnings"):
        return EXIT_STRICT
    return EXIT_OK


def _count(value: int, flag: str) -> int:
    if value < 0:
        raise InputError(f"{flag} must be >= 0, got {value}")
    return value


def _run_analyze_complex(args) -> int:
    from .complexes import read_facet_file
    from .linalg import parse_field
    from .reports import build_complex_report

    fields = tuple(parse_field(f) for f in (args.field or ["q"]))
    max_n = _count(args.max_hochster_n, "--max-hochster-n")
    cx = read_facet_file(args.path, allow_void=args.allow_void)
    report = build_complex_report(cx, fields=fields, max_hochster_n=max_n, descriptor=args.path)
    return _finish(report, args)


def _run_analyze_arrangement(args) -> int:
    from .arrangements import generic_hyperplane_section, read_arrangement_file
    from .reports import build_arrangement_report

    sections = _count(args.section, "--section")
    arr = read_arrangement_file(args.path)
    subset = None
    if args.ds_subset:
        try:
            typed = [int(tok) for tok in args.ds_subset.split(",")]
        except ValueError:
            raise InputError(f"bad subset {args.ds_subset!r}") from None
        s = arr.n_components
        for i in typed:
            if not 1 <= i <= s:
                raise InputError(f"component index {i} out of range 1..{s}")
        subset = [i - 1 for i in typed]
    for k in range(sections):
        arr = generic_hyperplane_section(arr, seed=args.seed + k)
    report = build_arrangement_report(
        arr,
        descriptor=args.path,
        regularity_certificate=args.regularity_certificate,
        ds_subset=subset,
        sections_applied=sections,
    )
    return _finish(report, args)


def _run_analyze_lines(args) -> int:
    from .lines import read_lines_file
    from .reports import build_lines_report

    return _finish(build_lines_report(read_lines_file(args.path), descriptor=args.path), args)


def _run_check_graph(args) -> int:
    from .graphs import read_graph_file
    from .reports import build_graph_report

    return _finish(build_graph_report(read_graph_file(args.path), descriptor=args.path), args)


def _run_generate(args) -> int:
    family = args.family
    if family in COMPLEX_FAMILIES:
        from .complexes import format_facet_text, generate_complex

        text = format_facet_text(generate_complex(family, args.parameter))
    elif family in GRAPH_FAMILIES:
        from .graphs import format_graph_text, generate_graph

        text = format_graph_text(generate_graph(family, args.parameter))
    else:
        raise InputError(
            f"unknown family {family!r}; complexes: {', '.join(COMPLEX_FAMILIES)};"
            f" graphs: {', '.join(GRAPH_FAMILIES)}"
        )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return EXIT_OK


_RUNNERS = {
    "analyze-complex": _run_analyze_complex,
    "analyze-arrangement": _run_analyze_arrangement,
    "analyze-lines": _run_analyze_lines,
    "check-graph": _run_check_graph,
    "generate": _run_generate,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _RUNNERS[args.command](args)
    except ResourceCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (OSError, UnicodeDecodeError, DualGraphsError) as exc:
        where = f"{args.path}: " if isinstance(exc, UnicodeDecodeError) else ""
        print(f"error: {where}{exc}", file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
