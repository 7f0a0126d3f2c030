"""Benchmark of the dualgraphs CLI: three workloads, checked reports, traced layers.

Run from the repository root:

    python3 perfbench/run.py --workload complexes --seed 1 --seconds 45 --trace 0

``--workload`` is ``complexes``, ``arrangements``, ``curves``, ``geometry``
(the inputs of ``arrangements`` and ``curves`` together) or ``all`` (the
first three, one after the other).
The benchmark makes the workload's inputs from ``--seed``, then runs whole
rounds -- every input once, one ``dualgraphs`` process per input, one at a
time -- until ``--seconds`` have passed. Every report is checked against
facts computed apart from the program (see ``inputs.py``).

With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run (``trace_child.py``). The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; a line per metric goes to standard error, and
the full record (per input and per round) to
``.perfbench-out/<workload>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
from checks import run_checks

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench-out"
CHILD_TIMEOUT_S = 100
SETUP_REPEATS = 5

#: How each per-layer metric of the traced run is derived, summed over a
#: round's inputs; names and units are those of BENCHMARK.json. ("calls",
#: group) counts outermost calls of a function group and ("time", group) is
#: their time; ("self", layer) is a layer's self time; ("max_per_report",
#: group) and ("max_per_field", group) are the most calls any single report
#: made, in all or per field (ideal 1).
PER_LAYER = {
    "cli.import_s": ("import",),
    "cli.parse_s": ("time", "cli.parse"),
    "reports.build_s": ("time", "reports.build"),
    "reports.self_s": ("self", "reports"),
    "homology.cm_calls": ("calls", "homology.cm"),
    "homology.cm_calls_max_per_field": ("max_per_field", "homology.cm"),
    "homology.cm_s": ("time", "homology.cm"),
    "homology.sphere_calls": ("calls", "homology.sphere"),
    "homology.gorenstein_s": ("time", "homology.gorenstein"),
    "homology.regularity_calls": ("calls", "homology.regularity"),
    "homology.regularity_s": ("time", "homology.regularity"),
    "homology.normal_s": ("time", "homology.normal"),
    "homology.self_s": ("self", "homology"),
    "complexes.link_calls": ("calls", "complexes.link"),
    "complexes.restrict_calls": ("calls", "complexes.restrict"),
    "complexes.self_s": ("self", "complexes"),
    "linalg.rank_calls": ("calls", "linalg.rank"),
    "linalg.rank_s": ("time", "linalg.rank"),
    "linalg.bareiss_calls": ("calls", "linalg.bareiss"),
    "linalg.nullspace_calls": ("calls", "linalg.nullspace"),
    "linalg.self_s": ("self", "linalg"),
    "graphs.dual_graph_calls": ("calls", "graphs.dual_graph"),
    "graphs.dual_graph_calls_max_per_report": ("max_per_report", "graphs.dual_graph"),
    "graphs.dual_adjacency_calls": ("calls", "graphs.dual_adjacency"),
    "graphs.diameter_calls": ("calls", "graphs.diameter"),
    "graphs.connectivity_calls": ("calls", "graphs.connectivity"),
    "graphs.connectivity_s": ("time", "graphs.connectivity"),
    "graphs.nonrevisiting_calls": ("calls", "graphs.nonrevisiting"),
    "graphs.nonrevisiting_s": ("time", "graphs.nonrevisiting"),
    "graphs.forbidden_s": ("time", "graphs.forbidden"),
    "graphs.self_s": ("self", "graphs"),
    "arrangements.build_calls": ("calls", "arrangements.build"),
    "arrangements.build_s": ("time", "arrangements.build"),
    "arrangements.dual_edges_calls": ("calls", "arrangements.dual_edges"),
    "arrangements.section_s": ("time", "arrangements.section"),
    "arrangements.self_s": ("self", "arrangements"),
    "lines.intersection_pairs_calls": ("calls", "lines.intersection_pairs"),
    "lines.intersection_pairs_calls_max_per_report":
        ("max_per_report", "lines.intersection_pairs"),
    "lines.intersects_calls": ("calls", "lines.intersects"),
    "lines.intersections_s": ("time", "lines.intersection_pairs"),
    "lines.verdict_s": ("time", "lines.verdict"),
    "lines.self_s": ("self", "lines"),
    "trace.overhead_s": ("overhead",),
}


def metric_units(trace: bool) -> dict:
    """Name -> unit of the metrics a run prints, read from BENCHMARK.json;
    its per-layer names must be exactly those of PER_LAYER."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if {m["name"] for m in spec["per_layer"]} != set(PER_LAYER):
        raise ValueError("the per-layer metrics of BENCHMARK.json and run.PER_LAYER differ")
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


class Program:
    """Runs the dualgraphs CLI from ``src`` of the checkout, one process at a
    time through ``spawner.py``, measuring each process's wall time and peak
    resident set."""

    def __init__(self, root: Path):
        self.python = sys.executable
        env = dict(os.environ)
        src = str(root / "src")
        env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
        # String hashing decides some set orders inside the program; fix it so
        # that a seed gives the same work in every run.
        env["PYTHONHASHSEED"] = "0"
        self.spawner = subprocess.Popen(
            [self.python, str(root / "perfbench" / "spawner.py")], env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def close(self):
        self.spawner.stdin.close()
        try:
            self.spawner.wait(timeout=CHILD_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self.spawner.kill()
            self.spawner.wait()

    def spawn(self, argv, stdout_path: Path, stderr_path: Path):
        """Run ``python3 <argv>``; return the spawner's reply: wall seconds,
        peak RSS in KiB, exit code."""
        request = {"argv": [self.python, *argv], "stdout": str(stdout_path),
                   "stderr": str(stderr_path), "timeout": CHILD_TIMEOUT_S}
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        reply = self.spawner.stdout.readline()
        if not reply:
            raise OSError("the spawner process ended")
        return json.loads(reply)

    def generate(self, family: str, parameter, out: Path):
        argv = ["-m", "dualgraphs.cli", "generate", family]
        if parameter is not None:
            argv.append(str(parameter))
        code = self.spawn(argv + ["--out", str(out)], out.with_suffix(".log"),
                          out.with_suffix(".err"))["exit"]
        if code != 0:
            raise inputs.SetupError(f"dualgraphs generate {family} exited {code}")


WORKLOADS = {
    "complexes": lambda prog, work, seed: inputs.build_complexes(prog, work, seed),
    "arrangements": lambda prog, work, seed: inputs.build_arrangements(prog, work, seed, ROOT),
    "curves": lambda prog, work, seed: inputs.build_curves(prog, work, seed, ROOT),
}
#: The inputs of ``arrangements`` and then ``curves`` in one round, so that a
#: run of fixed length measures fewer, longer rounds of two workloads.
WORKLOADS["geometry"] = lambda prog, work, seed: (
    WORKLOADS["arrangements"](prog, work, seed) + WORKLOADS["curves"](prog, work, seed))


def set_up(prog: Program, workload: str, seed: int):
    """Make the inputs SETUP_REPEATS times; return the cases and the times."""
    work = OUT / workload
    times = []
    for _ in range(SETUP_REPEATS):
        if work.exists():
            shutil.rmtree(work)
        work.mkdir(parents=True)
        start = time.perf_counter()
        cases = WORKLOADS[workload](prog, work.relative_to(ROOT), seed)
        times.append(time.perf_counter() - start)
    return cases, times


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []


def run_round(prog: Program, cases, tally: Tally, traced: bool) -> list[dict]:
    """Every case once, in order; returns one record per case."""
    records = []
    for case in cases:
        base = OUT / "reports" / case.name
        base.parent.mkdir(parents=True, exist_ok=True)
        report_path = base.with_suffix(".json")
        trace_path = base.with_suffix(".trace.json")
        if traced:
            argv = [str(ROOT / "perfbench" / "trace_child.py"), str(trace_path), *case.argv]
        else:
            argv = ["-m", "dualgraphs.cli", *case.argv]
        result = prog.spawn(argv, report_path, base.with_suffix(".err"))
        code = result["exit"]
        tally.attempted += 1
        record = {"case": case.name, "wall_s": result["wall_s"],
                  "rss_mib": result["rss_kib"] / 1024, "exit": code}
        errors = [f"exit code {code}"] if code != 0 else []
        if not errors:
            try:
                report = json.loads(report_path.read_text(encoding="utf-8"))
            except (OSError, ValueError) as exc:
                errors = [f"unreadable report: {exc}"]
            else:
                errors = run_checks(report, case.checks)
        if traced and not errors:
            record["trace"] = json.loads(trace_path.read_text(encoding="utf-8"))
            record["trace"]["n_fields"] = case.n_fields
        if errors:
            tally.failed += 1
            tally.errors += [f"{case.name}: {e}" for e in errors]
        records.append(record)
    return records


def end_to_end(rounds, setup_times) -> dict:
    # Times are averaged over a run's few rounds: the machine's speed drifts
    # smoothly rather than in rare spikes, and over 3 to 5 rounds the mean
    # varies less from run to run than the median does.
    return {
        "wall_s": statistics.fmean(sum(r["wall_s"] for r in rd) for rd in rounds),
        "max_report_s": statistics.fmean(max(r["wall_s"] for r in rd) for rd in rounds),
        "peak_rss_mib": statistics.median(max(r["rss_mib"] for r in rd) for rd in rounds),
        "setup_s": statistics.median(setup_times),
    }


def _layer_value(how, traces) -> float:
    kind = how[0]
    if kind == "import":
        return sum(t["import_s"] for t in traces)
    if kind == "calls":
        return sum(t["calls"].get(how[1], 0) for t in traces)
    if kind == "time":
        return sum(t["group_s"].get(how[1], 0.0) for t in traces)
    if kind == "self":
        return sum(t["self_s"].get(how[1], 0.0) for t in traces)
    if kind == "max_per_report":
        return max((t["calls"].get(how[1], 0) for t in traces), default=0)
    if kind == "max_per_field":
        return max((t["calls"].get(how[1], 0) / max(t["n_fields"], 1) for t in traces),
                   default=0)
    raise ValueError(how)


def per_layer(plain_rounds, traced_rounds) -> dict:
    out = {}
    for name, how in PER_LAYER.items():
        if how[0] == "overhead":
            traced = statistics.median(sum(r["wall_s"] for r in rd) for rd in traced_rounds)
            plain = statistics.median(sum(r["wall_s"] for r in rd) for rd in plain_rounds)
            out[name] = traced - plain
        else:
            out[name] = statistics.median(
                _layer_value(how, [r["trace"] for r in rd if "trace" in r])
                for rd in traced_rounds
            )
    return out


def run_workload(prog: Program, workload: str, seed: int, seconds: float, trace: bool,
                 units: dict):
    cases, setup_times = set_up(prog, workload, seed)
    for case in cases:
        case.checks  # noqa: B018  (compute the facts before any timing starts)
    tally = Tally()
    plain_rounds, traced_rounds = [], []
    start = time.perf_counter()
    while True:
        plain_rounds.append(run_round(prog, cases, tally, traced=False))
        if trace:
            traced_rounds.append(run_round(prog, cases, tally, traced=True))
        if time.perf_counter() - start >= seconds:
            break
    if trace:
        metrics = per_layer(plain_rounds, traced_rounds)
    else:
        metrics = end_to_end(plain_rounds, setup_times)
    if set(metrics) != set(units):
        raise ValueError("the metrics measured and those of BENCHMARK.json differ")
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "setup_s": setup_times, "rounds": plain_rounds, "traced_rounds": traced_rounds,
        "errors": tally.errors, "metrics": metrics,
    }
    (OUT / f"{workload}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1) + "\n")
    return tally, {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "dualgraphs" / "cli.py").is_file():
        print(f"error: no dualgraphs source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    units = metric_units(bool(args.trace))
    workloads = [args.workload]
    if args.workload == "all":
        workloads = ["complexes", "arrangements", "curves"]
    total = Tally()
    metrics = {}
    prog = Program(ROOT)
    try:
        results = [(w, run_workload(prog, w, args.seed, args.seconds, bool(args.trace),
                                    units))
                   for w in workloads]
    except (inputs.SetupError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        prog.close()
    for workload, (tally, got) in results:
        for error in tally.errors[:20]:
            print(f"FAILED {workload}: {error}", file=sys.stderr)
        print(f"{workload}: attempted {tally.attempted}, failed {tally.failed}", file=sys.stderr)
        for name, m in got.items():
            print(f"{workload}: {name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
        total.attempted += tally.attempted
        total.failed += tally.failed
        prefix = f"{workload}." if args.workload == "all" else ""
        metrics.update({prefix + name: m for name, m in got.items()})
    print(json.dumps({"correct": total.failed == 0, "attempted": total.attempted,
                      "failed": total.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
