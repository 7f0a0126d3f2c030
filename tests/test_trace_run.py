"""The traced benchmark run (``perfbench/trace_child.py``) on small inputs.

The tracer wraps each report builder by name on ``dualgraphs.reports``, which
resolves the builders on first use; a wrapper that is installed but never
called would read ``reports.build_s = 0`` while every name still resolves.
So each case runs the tracer in a fresh interpreter, checks that it counted
one build with some time, and that it printed what the plain CLI prints.

The complex's dual graph lives in ``dualgraphs.homology``, while the tracer
looks up ``graphs.dual_graph`` and ``graphs.dual_adjacency``; each case also
checks that these spans count the complex report's one dual-graph build.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRACE_CHILD = ROOT / "perfbench" / "trace_child.py"


def _python(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True)


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("family, parameter, command, dual_builds", [
    ("crosspolytope", "2", "analyze-complex", 1),
    ("hypercube", "3", "check-graph", 0),
])
def test_traced_run_times_one_report_build_and_prints_the_report(
        tmp_path, family, parameter, command, dual_builds, fmt):
    path = tmp_path / f"{family}.txt"
    assert _python("-m", "dualgraphs.cli", "generate", family, parameter,
                   "--out", str(path)).returncode == 0
    argv = [command, str(path), "--format", fmt]
    trace_path = tmp_path / "trace.json"
    traced = _python(str(TRACE_CHILD), str(trace_path), *argv)
    plain = _python("-m", "dualgraphs.cli", *argv)
    assert traced.returncode == 0, traced.stderr
    trace = json.loads(trace_path.read_text())
    assert trace["exit"] == 0
    assert trace["calls"]["reports.build"] == 1
    assert trace["group_s"]["reports.build"] > 0
    assert trace["calls"]["graphs.dual_graph"] == dual_builds
    assert trace["calls"]["graphs.dual_adjacency"] == dual_builds
    assert plain.returncode == 0
    assert traced.stdout == plain.stdout
