"""Byte-for-byte snapshots of CLI reports.

Each case writes one input file into a scratch directory, runs the CLI on it
in-process with ``--format json`` and with ``--format text --strict``, and
compares both outputs and both exit codes with the files under
``tests/snapshots/``. The inputs reach every check of every report kind,
its pass and not-applicable branches where a small input has them, and
every check a report leaves out.

To rewrite the snapshots from the current code (only when a report is meant
to change):

    PYTHONPATH=src python tests/test_report_snapshots.py
"""

import contextlib
import io
import itertools
import json
import os
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

from dualgraphs.cli import main

ROOT = Path(__file__).parent.parent
SNAPSHOTS = Path(__file__).parent / "snapshots"


def _sample(name):
    return (ROOT / "sample_inputs" / name).read_text()


def _generated(family, parameter=None):
    return ("generate", family, parameter)


RP2 = "1 2 3\n1 3 4\n1 4 5\n1 5 6\n1 6 2\n2 3 5\n3 4 6\n4 5 2\n5 6 3\n6 2 4\n"
TWO_FIELDS = ("--field", "q", "--field", "gf:2")


def _coordinate(rows):
    """Arrangement JSON with one component per list of unit-vector indices."""
    n = 1 + max(i for comp in rows for i in comp)
    unit = lambda i: [1 if k == i else 0 for k in range(n)]
    return json.dumps({"variables": n, "components": [[unit(i) for i in comp] for comp in rows]})


def _lines(ambient_dim, lines):
    return json.dumps({"ambient_dim": ambient_dim, "lines": [{"points": ln} for ln in lines]})


def _exact(x):
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


#: Fractional, negative and non-primitive multipliers, used in turn.
SCALES = [Fraction(-3, 2), 6, Fraction(5, 7), -4, Fraction(-2, 9), 10, Fraction(12, 5)]


def _scaled_octahedron():
    """The octahedron's coordinate arrangement in rational coordinates.

    Each form e_i becomes row i of a unitriangular matrix with fractional
    entries of both signs, times a multiplier from ``SCALES``; each
    component also lists -12 times the sum of its first two forms.
    """
    n = 6
    basis = [[Fraction(0) if j < i else Fraction(1) if j == i
              else Fraction((-1) ** (i + j) * (j - i), i + 2) for j in range(n)]
             for i in range(n)]
    scales = itertools.cycle(SCALES)
    components = []
    for choice in range(8):
        facet = {2 * i + (choice >> i & 1) for i in range(3)}
        forms = [[s * x for x in basis[i]]
                 for i, s in zip((i for i in range(n) if i not in facet), scales)]
        forms.append([-12 * (a + b) for a, b in zip(forms[0], forms[1])])
        components.append([[_exact(x) for x in form] for form in forms])
    return json.dumps({"variables": n, "components": components})


def _scaled_lines(ambient_dim, lines):
    """Line JSON with every spanning point multiplied by the next of ``SCALES``."""
    scales = itertools.cycle(SCALES)
    return _lines(ambient_dim, [[[_exact(s * x) for x in pt] for pt, s in zip(ln, scales)]
                                for ln in lines])


#: Three lines through (6, -9, 10) plus two more, in P^2.
_CONCURRENT_P2 = [
    [[Fraction(1, 2), Fraction(-3, 4), Fraction(5, 6)], [1, 0, 0]],
    [[Fraction(1, 2), Fraction(-3, 4), Fraction(5, 6)], [0, 1, Fraction(1, 3)]],
    [[6, -9, 10], [2, 2, -3]],
    [[1, 0, 0], [0, 0, 1]],
    [[0, 1, 0], [1, 1, Fraction(7, 2)]],
]
#: The two rulings of the quadric xw = yz in P^3, spanned by other points
#: of each line than in sample_inputs/grid_lines_p3.json.
_GRID_P3 = [
    [[1, 0, 2, 0], [3, 0, -1, 0]],
    [[0, 1, 0, Fraction(1, 2)], [0, 2, 0, -3]],
    [[1, 1, 1, 1], [2, 2, -1, -1]],
    [[1, 1, 0, 0], [Fraction(1, 3), 0, 0, 0]],
    [[0, 0, 1, 1], [0, 0, -2, 3]],
    [[1, 1, 1, 1], [3, -2, 3, -2]],
]


#: (case name, CLI command, input file name, input text or generator, extra arguments)
CASES = [
    ("four_lines_p2", "analyze-lines", "four_lines_p2.json", _sample("four_lines_p2.json"), ()),
    ("grid_lines_p3", "analyze-lines", "grid_lines_p3.json", _sample("grid_lines_p3.json"), ()),
    ("path_lines_p3", "analyze-lines", "path_lines_p3.json", _sample("path_lines_p3.json"), ()),
    ("three_lines_p2", "analyze-lines", "three.json",
     _lines(2, [[[1, 0, 0], [0, 1, 0]], [[0, 1, 0], [0, 0, 1]], [[1, 0, 0], [0, 0, 1]]]), ()),
    ("concurrent_lines_p2", "analyze-lines", "concurrent.json",
     _lines(2, [[[1, 0, 0], [0, 1, 0]], [[1, 0, 0], [0, 0, 1]], [[1, 0, 0], [0, 1, 1]],
                [[0, 1, 0], [0, 0, 1]]]), ()),
    ("five_lines_p2", "analyze-lines", "five.json",
     _lines(2, [[[0, 1, 0], [0, 0, 1]], [[1, 0, 0], [0, 0, 1]], [[1, 0, 0], [0, 1, 0]],
                [[1, -1, 0], [0, 1, -1]], [[2, -1, 0], [3, 0, -1]]]), ()),
    ("nonhirsch", "analyze-arrangement", "nonhirsch_arrangement.json",
     _sample("nonhirsch_arrangement.json"), ()),
    ("nonhirsch_certified", "analyze-arrangement", "nonhirsch_arrangement.json",
     _sample("nonhirsch_arrangement.json"),
     ("--regularity-certificate", "1", "--ds-subset", "1,2")),
    ("nonhirsch_cut", "analyze-arrangement", "nonhirsch_arrangement.json",
     _sample("nonhirsch_arrangement.json"), ("--regularity-certificate", "2")),
    ("coordinate_hyperplanes", "analyze-arrangement", "hyperplanes.json",
     _coordinate([[0], [1], [2]]), ()),
    ("coordinate_points", "analyze-arrangement", "points.json",
     _coordinate([[1, 2], [0, 2], [0, 1]]), ("--regularity-certificate", "3")),
    ("mixed_arrangement", "analyze-arrangement", "mixed.json",
     _coordinate([[0], [1, 2]]), ()),
    ("skew_lines", "analyze-arrangement", "skew.json", _coordinate([[0, 1], [2, 3]]), ()),
    ("zero_ideal", "analyze-arrangement", "zero.json",
     json.dumps({"variables": 3, "components": [[]]}), ()),
    ("scaled_octahedron", "analyze-arrangement", "octahedron.json", _scaled_octahedron(), ()),
    ("scaled_octahedron_section", "analyze-arrangement", "octahedron.json",
     _scaled_octahedron(), ("--section", "1")),
    ("scaled_octahedron_certified", "analyze-arrangement", "octahedron.json",
     _scaled_octahedron(), ("--regularity-certificate", "3")),
    ("scaled_concurrent_p2", "analyze-lines", "concurrent.json",
     _scaled_lines(2, _CONCURRENT_P2), ()),
    ("scaled_grid_p3", "analyze-lines", "grid.json", _scaled_lines(3, _GRID_P3), ()),
    *[(f"crosspolytope{r}", "analyze-complex", f"x{r}.facets", _generated("crosspolytope", r), ())
      for r in range(1, 5)],
    *[(f"simplex{d}", "analyze-complex", f"s{d}.facets", _generated("simplex", d), ())
      for d in range(1, 4)],
    ("tadpole", "analyze-complex", "tadpole.facets", _generated("tadpole"), ()),
    ("solid_triangle", "analyze-complex", "triangle.facets", "1 2 3\n", ()),
    ("non_pure", "analyze-complex", "nonpure.facets", "1 2 3\n3 4\n", ()),
    ("two_points", "analyze-complex", "points.facets", "1\n2\n", ()),
    ("bowtie", "analyze-complex", "bowtie.facets", "1 2 3\n3 4 5\n", ()),
    ("rp2", "analyze-complex", "rp2.facets", RP2, TWO_FIELDS),
    *[(f"hypercube{n}", "check-graph", f"q{n}.graph", _generated("hypercube", n), ())
      for n in range(1, 5)],
    *[(f"complete{n}", "check-graph", f"k{n}.graph", _generated("complete", n), ())
      for n in range(2, 7)],
    ("forbidden6", "check-graph", "f6.graph", _generated("forbidden6"), ()),
    ("disconnected_graph", "check-graph", "disconnected.graph", "1 2\n3 4\n", ()),
    ("single_vertex", "check-graph", "k1.graph", "v 1\n", ()),
]


def _in_process(argv):
    """Exit code and stdout of one CLI run; malformed input must not raise."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    assert "Traceback" not in err.getvalue()
    return code, out.getvalue()


def _render(case):
    """(json output, text output, exit codes) for one case, run in the cwd."""
    _, command, path, source, extra = case
    if isinstance(source, tuple):
        _, family, parameter = source
        argv = ["generate", family] + ([str(parameter)] if parameter is not None else [])
        assert _in_process(argv + ["--out", path])[0] == 0
    else:
        Path(path).write_text(source)
    json_code, json_out = _in_process([command, path, *extra, "--format", "json"])
    text_code, text_out = _in_process([command, path, *extra, "--format", "text", "--strict"])
    return json_out, text_out, {"exit": json_code, "strict_exit": text_code}


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_report_matches_snapshot(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    json_out, text_out, codes = _render(case)
    name = case[0]
    assert json_out == (SNAPSHOTS / f"{name}.json").read_text()
    assert text_out == (SNAPSHOTS / f"{name}.txt").read_text()
    assert codes == json.loads((SNAPSHOTS / "exit_codes.json").read_text())[name]


def _regenerate():
    SNAPSHOTS.mkdir(exist_ok=True)
    codes = {}
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        for case in CASES:
            json_out, text_out, codes[case[0]] = _render(case)
            (SNAPSHOTS / f"{case[0]}.json").write_text(json_out)
            (SNAPSHOTS / f"{case[0]}.txt").write_text(text_out)
    (SNAPSHOTS / "exit_codes.json").write_text(json.dumps(codes, indent=2) + "\n")
    print(f"wrote {len(CASES)} cases to {SNAPSHOTS}")


if __name__ == "__main__":
    _regenerate()
