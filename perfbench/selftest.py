"""Self-test of the benchmark's output checks.

Run from the repository root:

    python3 perfbench/selftest.py

It builds tiny instances of every input family -- the crosspolytope with
r = 2 (r = 3 for the arrangements, the smallest that allows a section), the
join of two triangle boundaries, the 3 x 3 quadric grid, 5 general lines in
P^2, the 3-cube, K_5 and G(8, 1/2) -- plus RP^2, the tadpole and the sample
files, all made from the seed ``SEED``, and runs the CLI on each. Every
check must accept the real report. Then each check gets a copy of the report
changed the way its ``mutate`` says (one number, flag or label) and must
reject it. Exit code 0 means
every check accepted what is right and rejected what is wrong.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import sys

import inputs
from checks import run_checks
from run import OUT, ROOT, Program

TINY = {
    "complexes": lambda prog, work, seed: inputs.build_complexes(
        prog, work, seed, r=2, join=(2, 2)),
    "arrangements": lambda prog, work, seed: inputs.build_arrangements(
        prog, work, seed, ROOT, r=3, join=(2, 2)),
    "curves": lambda prog, work, seed: inputs.build_curves(
        prog, work, seed, ROOT, grid=3, lines=5, cube=3, complete=5, gnp=8),
}
SEED = 7


def main() -> int:
    os.chdir(ROOT)
    problems = []
    n_checks = 0
    prog = Program(ROOT)
    try:
        for workload, build in TINY.items():
            work = OUT / "selftest" / workload
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            for case in build(prog, work.relative_to(ROOT), SEED):
                out = work / f"{case.name}.report.json"
                code = prog.spawn(["-m", "dualgraphs.cli", *case.argv], out,
                                  out.with_suffix(".err"))["exit"]
                if code != 0:
                    problems.append(f"{case.name}: exit code {code}")
                    continue
                report = json.loads(out.read_text(encoding="utf-8"))
                problems += [f"{case.name}: rejects the real report: {e}"
                             for e in run_checks(report, case.checks)]
                for check in case.checks:
                    n_checks += 1
                    wrong = copy.deepcopy(report)
                    check.mutate(wrong)
                    if not run_checks(wrong, [check]):
                        problems.append(f"{case.name}: '{check.name}' accepts a changed report")
    finally:
        prog.close()
    for p in problems:
        print(p)
    print(f"{n_checks} checks, {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
