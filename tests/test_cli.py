import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dualgraphs.cli import main

SAMPLES = Path(__file__).parent.parent / "sample_inputs"
SRC = Path(__file__).parent.parent / "src"
FAMILIES = ("crosspolytope", "simplex", "tadpole", "hypercube", "path", "complete", "forbidden6")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_complex_to_stdout(capsys):
    code, out, _ = run(capsys, "generate", "crosspolytope", "2")
    assert code == 0
    assert out.splitlines() == ["1 3", "1 4", "2 3", "2 4"]


def test_generate_hypercube_edge_file(capsys, tmp_path):
    out_path = tmp_path / "q3.graph"
    code, _, _ = run(capsys, "generate", "hypercube", "3", "--out", str(out_path))
    assert code == 0
    assert len(out_path.read_text().splitlines()) == 12


def test_generate_unknown_family(capsys):
    code, _, err = run(capsys, "generate", "moebius", "3")
    assert code == 1 and "unknown family" in err


def test_analyze_complex_crosspolytope(capsys, tmp_path):
    path = tmp_path / "x3.facets"
    run(capsys, "generate", "crosspolytope", "3", "--out", str(path))
    code, out, _ = run(capsys, "analyze-complex", str(path))
    assert code == 0
    assert "Gorenstein: yes" in out
    assert "regularity: 3" in out
    assert "diameter=3" in out
    assert "-> hirsch" in out


def test_analyze_complex_json_and_text_agree(capsys, tmp_path):
    path = tmp_path / "x2.facets"
    run(capsys, "generate", "crosspolytope", "2", "--out", str(path))
    code, out_json, _ = run(capsys, "analyze-complex", str(path), "--format", "json")
    assert code == 0
    data = json.loads(out_json)
    code, out_text, _ = run(capsys, "analyze-complex", str(path))
    assert code == 0
    assert data["fields"]["Q"]["regularity"] == 2
    assert f"regularity: {data['fields']['Q']['regularity']}" in out_text
    assert f"diameter={data['dual_graph']['diameter']}" in out_text
    assert data["hirsch"]["verdict"] in out_text
    assert data["h_vector"] == [1, 2, 1]


def test_analyze_complex_deterministic_json(capsys, tmp_path):
    path = tmp_path / "tad.facets"
    run(capsys, "generate", "tadpole", "--out", str(path))
    _, first, _ = run(capsys, "analyze-complex", str(path), "--format", "json")
    _, second, _ = run(capsys, "analyze-complex", str(path), "--format", "json")
    assert first == second


def test_analyze_complex_tadpole_checklist(capsys, tmp_path):
    path = tmp_path / "tad.facets"
    run(capsys, "generate", "tadpole", "--out", str(path))
    code, out, _ = run(capsys, "analyze-complex", str(path))
    assert code == 0
    assert "Cohen-Macaulay: yes" in out
    assert "regularity: 2" in out
    assert "kappa=1" in out
    assert "[not applicable] gorenstein_regularity_connectivity [Q]: not Gorenstein" in out


def test_strict_mode_exit_code(capsys, tmp_path):
    path = tmp_path / "tad.facets"
    run(capsys, "generate", "tadpole", "--out", str(path))
    code, _, _ = run(capsys, "analyze-complex", str(path), "--strict")
    assert code == 2


def test_multiple_fields(capsys, tmp_path):
    path = tmp_path / "x2.facets"
    run(capsys, "generate", "crosspolytope", "2", "--out", str(path))
    code, out, _ = run(capsys, "analyze-complex", str(path),
                       "--field", "q", "--field", "gf:2")
    assert code == 0
    assert "[Q]" in out and "[GF(2)]" in out


def test_repeated_field_is_analyzed_once(capsys, tmp_path):
    path = tmp_path / "s2.facets"
    run(capsys, "generate", "crosspolytope", "3", "--out", str(path))
    _, repeated, _ = run(capsys, "analyze-complex", str(path), "--format", "json",
                         "--field", "q", "--field", "Q", "--field", "gf:2")
    _, once, _ = run(capsys, "analyze-complex", str(path), "--format", "json",
                     "--field", "q", "--field", "gf:2")
    assert repeated == once


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, "analyze-complex", "/no/such/file")
    assert code == 1 and "error:" in err


def test_parse_error_reports_line(capsys, tmp_path):
    path = tmp_path / "bad.facets"
    path.write_text("1 2\n3 3\n")
    code, _, err = run(capsys, "analyze-complex", str(path))
    assert code == 1 and "line 2" in err


def test_hochster_cap_exit_code(capsys, tmp_path):
    path = tmp_path / "x3.facets"
    run(capsys, "generate", "crosspolytope", "3", "--out", str(path))
    code, _, err = run(capsys, "analyze-complex", str(path), "--max-hochster-n", "5")
    assert code == 3 and "cap" in err
    code, _, _ = run(capsys, "analyze-complex", str(path), "--max-hochster-n", "6")
    assert code == 0


def test_allow_void(capsys, tmp_path):
    path = tmp_path / "void.facets"
    path.write_text("# nothing here\n")
    code, _, err = run(capsys, "analyze-complex", str(path))
    assert code == 1
    code, out, _ = run(capsys, "analyze-complex", str(path), "--allow-void")
    assert code == 0 and "void" in out


def test_analyze_arrangement_nonhirsch(capsys):
    code, out, _ = run(capsys, "analyze-arrangement",
                       str(SAMPLES / "nonhirsch_arrangement.json"))
    assert code == 0
    assert "diameter 3 vs height 2 -> not_hirsch" in out


def test_analyze_arrangement_with_certificate(capsys, tmp_path):
    import dualgraphs.arrangements as am
    import dualgraphs.complexes as cm

    path = tmp_path / "x3.json"
    am.write_arrangement_file(am.from_complex(cm.crosspolytope_boundary(3)), path)
    code, out, _ = run(capsys, "analyze-arrangement", str(path),
                       "--regularity-certificate", "3")
    assert code == 0
    assert "[pass] regularity_connectivity" in out
    code, out, _ = run(capsys, "analyze-arrangement", str(path),
                       "--regularity-certificate", "4")
    assert "[FAIL] regularity_connectivity" in out


def test_analyze_arrangement_sections(capsys, tmp_path):
    import dualgraphs.arrangements as am
    import dualgraphs.complexes as cm

    path = tmp_path / "x3.json"
    am.write_arrangement_file(am.from_complex(cm.crosspolytope_boundary(3)), path)
    code, out, _ = run(capsys, "analyze-arrangement", str(path),
                       "--section", "1", "--seed", "5", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["n_vars"] == 5
    assert data["sections_applied"] == 1
    assert data["dual_graph"]["diameter"] == 3


def test_analyze_lines_all_three(capsys):
    code, out, _ = run(capsys, "analyze-lines", str(SAMPLES / "four_lines_p2.json"))
    assert code == 0
    assert "genus: 3" in out and "verdict: hirsch" in out
    code, out, _ = run(capsys, "analyze-lines", str(SAMPLES / "grid_lines_p3.json"))
    assert "genus: 4" in out and "verdict: hirsch" in out
    code, out, _ = run(capsys, "analyze-lines", str(SAMPLES / "path_lines_p3.json"))
    assert "not_canonically_embeddable" in out


def test_analyze_lines_coinciding_lines_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "coincide.json"
    path.write_text(json.dumps({"ambient_dim": 2, "lines": [
        {"points": [[1, 0, 0], [0, 1, 0]]},
        {"points": [[2, 0, 0], [1, 1, 0]]},
        {"points": [[0, 0, 1], [1, 0, 0]]},
    ]}))
    code, out, err = run(capsys, "analyze-lines", str(path))
    assert (code, out, err) == (1, "", "error: lines 1 and 2 coincide\n")


def test_check_graph_forbidden(capsys, tmp_path):
    path = tmp_path / "f6.graph"
    run(capsys, "generate", "forbidden6", "--out", str(path))
    code, out, _ = run(capsys, "check-graph", str(path))
    assert code == 0
    assert "not_realizable" in out
    code, _, _ = run(capsys, "check-graph", str(path), "--strict")
    assert code == 2


def test_check_graph_unknown_realizability(capsys, tmp_path):
    path = tmp_path / "q3.graph"
    run(capsys, "generate", "hypercube", "3", "--out", str(path))
    code, out, _ = run(capsys, "check-graph", str(path))
    assert code == 0
    assert "unknown" in out
    assert "canonical_graph_diameter" in out


def test_facet_file_cli_round_trip(capsys, tmp_path):
    path = tmp_path / "x2.facets"
    run(capsys, "generate", "crosspolytope", "2", "--out", str(path))
    text1 = path.read_text()
    import dualgraphs.complexes as cm

    cm.write_facet_file(cm.read_facet_file(path), path)
    assert path.read_text() == text1


def test_analyze_arrangement_zero_ideal(capsys, tmp_path):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"variables": 3, "components": [[]]}))
    code, out, err = run(capsys, "analyze-arrangement", str(path), "--format", "json")
    assert code == 0, err
    data = json.loads(out)
    assert data["heights"] == [0]
    assert data["height"] == 0
    assert data["dual_graph"]["n_vertices"] == 1
    assert data["dual_graph"]["n_edges"] == 0
    assert data["hirsch"]["verdict"] == "hirsch"


def test_analyze_complex_full_triangle(capsys, tmp_path):
    path = tmp_path / "tri.facets"
    path.write_text("1 2 3\n")
    code, out, err = run(capsys, "analyze-complex", str(path), "--format", "json")
    assert code == 0, err
    data = json.loads(out)
    assert data["height"] == 0
    larman = [c for c in data["checks"] if c["id"] == "cm_larman_diameter_bound"]
    assert [(c["status"], c["detail"]) for c in larman] == [("not_applicable", "height 0")]


_LINE = {"points": [[1, 0, 0], [0, 1, 0]]}


@pytest.mark.parametrize("command, data", [
    ("analyze-arrangement", {"variables": 2, "components": [[["1/0", 1]]]}),
    ("analyze-arrangement", {"variables": 2, "components": [[["abc", 1]]]}),
    ("analyze-arrangement", {"variables": 2, "components": 5}),
    ("analyze-arrangement", {"variables": 1, "components": [[5]]}),
    ("analyze-lines", {"ambient_dim": 2, "lines": [{"points": [["1/0", 0, 0], [0, 1, 0]]}]}),
    ("analyze-lines", {"ambient_dim": 2, "lines": [{"points": [["x", 0, 0], [0, 1, 0]]}]}),
    ("analyze-lines", {"ambient_dim": 2, "lines": [{"points": [1, 2]}, _LINE]}),
    ("analyze-lines", {"ambient_dim": 2, "lines": 5}),
    ("analyze-arrangement", {"variables": True, "components": [[[1]]]}),
    ("analyze-arrangement", {"variables": 2, "components": [[[True, False]]]}),
    ("analyze-lines", {"ambient_dim": True, "lines": [_LINE]}),
    ("analyze-lines", {"ambient_dim": 2, "lines": [{"points": [[True, 0, 0], [0, 1, 0]]}]}),
    ("analyze-arrangement", {"variables": 2, "components": [[["1_000", 1]]]}),
    ("analyze-arrangement", {"variables": 2, "components": [[["3 / 4", 1]]]}),
    ("analyze-lines", {"ambient_dim": 2, "lines": [{"points": [["1_000", 0, 0], [0, 1, 0]]}]}),
    ("analyze-lines", {"ambient_dim": 2, "lines": [{"points": [["3 / 4", 0, 0], [0, 1, 0]]}]}),
], ids=["zero-denominator-coefficient", "malformed-coefficient", "components-not-a-list",
        "form-not-a-list", "zero-denominator-coordinate", "malformed-coordinate",
        "point-not-a-list", "lines-not-a-list", "boolean-variables", "boolean-coefficients",
        "boolean-ambient-dim", "boolean-coordinate", "underscore-coefficient",
        "spaced-slash-coefficient", "underscore-coordinate", "spaced-slash-coordinate"])
def test_malformed_json_is_an_input_error(capsys, tmp_path, command, data):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, _, err = run(capsys, command, str(path))
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_regularity_certificate_zero_on_the_zero_ideal(capsys, tmp_path):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"variables": 3, "components": [[]]}))
    code, out, err = run(capsys, "analyze-arrangement", str(path),
                         "--regularity-certificate", "0", "--format", "json")
    assert code == 0, err
    checks = {c["id"]: c["status"] for c in json.loads(out)["checks"]}
    assert checks["regularity_connectivity"] == "pass"


@pytest.mark.parametrize("command", [
    "analyze-complex", "analyze-arrangement", "analyze-lines", "check-graph",
])
def test_non_utf8_input_is_an_input_error(capsys, tmp_path, command):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"\xff\xfe1 2\n")
    code, _, err = run(capsys, command, str(path))
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(path) in err


@pytest.mark.parametrize("command, flag, text", [
    ("analyze-arrangement", "--section", json.dumps({"variables": 3, "components": [[]]})),
    ("analyze-complex", "--max-hochster-n", "1 2\n2 3\n"),
], ids=["section", "max-hochster-n"])
def test_negative_count_is_an_input_error(capsys, tmp_path, command, flag, text):
    path = tmp_path / "input"
    path.write_text(text)
    code, out, err = run(capsys, command, str(path), flag, "-1")
    assert code == 1 and out == ""
    assert err.startswith(f"error: {flag} must be >= 0") and err.count("\n") == 1


@pytest.mark.parametrize("typed", ["0", "5", "1,0"])
def test_ds_subset_error_names_the_typed_index(capsys, typed):
    code, out, err = run(capsys, "analyze-arrangement",
                         str(SAMPLES / "nonhirsch_arrangement.json"), "--ds-subset", typed)
    assert code == 1 and out == ""
    bad = typed.split(",")[-1]
    assert err == f"error: component index {bad} out of range 1..4\n"


def test_ds_subset_accepts_the_last_component(capsys):
    code, out, err = run(capsys, "analyze-arrangement",
                         str(SAMPLES / "nonhirsch_arrangement.json"), "--ds-subset", "4",
                         "--format", "json")
    assert code == 0, err
    assert json.loads(out)["derksen_sidman_bound"] == 0


def test_generate_unknown_family_names_every_family(capsys):
    code, out, err = run(capsys, "generate", "nosuch")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert all(family in err for family in FAMILIES)


@pytest.mark.parametrize("command, expected", [
    ("generate", FAMILIES),
    ("analyze-complex", ("default 20",)),
])
def test_help_text(capsys, command, expected):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    # argparse wraps help to the terminal width, differently across versions
    out = " ".join(capsys.readouterr().out.split())
    assert all(text in out for text in expected)


#: Reports the package modules, and which of a few standard-library modules,
#: were loaded by a command run in a fresh interpreter (its report output is
#: discarded).
_LOADED = """
import contextlib, io, json, sys
before = set(sys.modules)
from dualgraphs.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
loaded = set(sys.modules) - before
print(json.dumps([code, sorted(m[len("dualgraphs."):] for m in loaded
                               if m.startswith("dualgraphs.")),
                  sorted(loaded & {"dataclasses", "decimal", "fractions"})]))
"""


def _loaded_by(*argv, code=_LOADED):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


_BASE = {"cli", "errors", "graphs", "reports"}

#: Each analysis command and the modules it loads besides ``_BASE`` with
#: ``--format json``. The geometry inputs are integral, so no command loads
#: ``fractions`` (nor ``decimal``, which it loads).
_ANALYSES = {
    "check-graph": (["check-graph", "{tmp}/q3.edges"], {"reports.graphs"}),
    "analyze-lines": (["analyze-lines", str(SAMPLES / "four_lines_p2.json")],
                      {"lines", "linalg", "reports.lines"}),
    "analyze-arrangement": (["analyze-arrangement", str(SAMPLES / "nonhirsch_arrangement.json")],
                            {"arrangements", "linalg", "reports.arrangements"}),
    "analyze-complex": (["analyze-complex", "{tmp}/x2.facets"],
                        {"complexes", "homology", "linalg", "reports.complexes"}),
}


@pytest.mark.parametrize("argv, modules", [
    pytest.param([*argv, "--format", fmt], _BASE | modules | renderer, id=f"{name}-{fmt}")
    for name, (argv, modules) in _ANALYSES.items()
    for fmt, renderer in (("json", set()), ("text", {"reports.text"}))
] + [
    pytest.param(["generate", "hypercube", "3"], {"cli", "errors", "graphs"},
                 id="generate-graph"),
    pytest.param(["generate", "crosspolytope", "2"], {"cli", "errors", "complexes"},
                 id="generate-complex"),
])
def test_each_command_loads_only_its_modules(capsys, tmp_path, argv, modules):
    run(capsys, "generate", "hypercube", "3", "--out", str(tmp_path / "q3.edges"))
    run(capsys, "generate", "crosspolytope", "2", "--out", str(tmp_path / "x2.facets"))
    code, loaded, stdlib = _loaded_by(*(a.format(tmp=tmp_path) for a in argv))
    assert code == 0
    assert set(loaded) == modules
    assert stdlib == []


def test_importing_the_package_loads_no_module():
    code = ("import json, sys\nimport dualgraphs\n"
            "print(json.dumps([0, [m for m in sys.modules if m.startswith('dualgraphs.')], 0]))")
    assert _loaded_by(code=code)[1] == []
