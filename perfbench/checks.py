"""Output checks: each one a test on a report plus a mutation it must reject.

A check's ``test`` returns None when the report agrees with the fact, and
an error message otherwise. Its ``mutate`` changes the report in place the
smallest way that contradicts the fact (one number, flag or label), which is
what the self-test feeds back to ``test`` to prove the check can fail.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from oracle import is_induced_pattern

_MISSING = "<missing>"


@dataclass(frozen=True)
class Check:
    name: str
    test: Callable[[dict], "str | None"]
    mutate: Callable[[dict], None]


def get(report, path):
    cur = report
    for key in path:
        if isinstance(cur, dict) and key in cur:
            cur = cur[key]
        else:
            return _MISSING
    return cur


def _set(report, path, value):
    cur = report
    for key in path[:-1]:
        cur = cur[key]
    cur[path[-1]] = value


def changed(value):
    """The value with one number (or flag, or label) changed."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, str):
        return value + "x"
    if value is None:
        return 0
    if isinstance(value, list) and value:
        return [changed(value[0])] + value[1:]
    return [0]


def expect(*path, value) -> Check:
    """The report holds ``value`` at ``path``."""
    name = ".".join(map(str, path))

    def test(report):
        got = get(report, path)
        if got == value and type(got) is type(value):
            return None
        return f"{name} = {got!r}, expected {value!r}"

    return Check(name, test, lambda r: _set(r, path, changed(get(r, path))))


def _find_check(report, check_id, field):
    for c in report.get("checks") or ():
        if c.get("id") == check_id and c.get("field") == field:
            return c
    return None


def check_status(check_id, status, field=None) -> Check:
    """The program's own check ``check_id`` (for ``field``) has ``status``."""
    name = f"check {check_id}" + (f" [{field}]" if field else "") + f" is {status}"

    def test(report):
        c = _find_check(report, check_id, field)
        got = c and c.get("status")
        return None if got == status else f"{name}: got {got!r}"

    def mutate(report):
        c = _find_check(report, check_id, field)
        c["status"] = "pass" if status != "pass" else "fail"

    return Check(name, test, mutate)


def no_failed_checks(allowed=()) -> Check:
    """No check of the program reports fail, except those in ``allowed``."""

    def test(report):
        checks = report.get("checks")
        if not isinstance(checks, list) or not checks:
            return "report has no checks"
        bad = [c["id"] for c in checks
               if c.get("status") == "fail" and c.get("id") not in allowed]
        return f"checks report fail: {bad}" if bad else None

    def mutate(report):
        victim = next(c for c in report["checks"] if c["id"] not in allowed)
        victim["status"] = "fail"

    return Check("no check fails", test, mutate)


def edge_set(*path, edges, label=str) -> Check:
    """The edge list at ``path`` is exactly ``edges`` (a set of frozensets),
    comparing endpoints after mapping them through ``label``."""
    name = ".".join(path) + " edge set"

    def test(report):
        got = get(report, path)
        if not isinstance(got, list):
            return f"{name}: missing"
        seen = {frozenset((label(u), label(v))) for u, v in got}
        if len(seen) != len(got) or seen != edges:
            return f"{name}: {len(seen)} distinct of {len(got)} listed, expected {len(edges)}"
        return None

    def mutate(report):
        get(report, path).pop()

    return Check(name, test, mutate)


def pattern_witness(adj: dict, exists: bool) -> Check:
    """The reported forbidden-pattern witness is an induced copy in the
    input graph, and one is reported exactly when one exists."""

    def test(report):
        w = report.get("forbidden_subgraph_witness")
        if not exists:
            return None if w is None else f"witness {w} reported, none exists"
        if w is None:
            return "no witness reported, but the pattern occurs"
        return None if is_induced_pattern(adj, w) else f"witness {w} is not an induced copy"

    def mutate(report):
        w = report.get("forbidden_subgraph_witness")
        if w is None:
            hosts = sorted(adj)[:6]
            report["forbidden_subgraph_witness"] = dict(zip("123456", hosts))
        else:
            w["2"] = w["1"]

    return Check("forbidden pattern witness", test, mutate)


def run_checks(report, checks) -> list[str]:
    """Error messages of every check that rejects the report."""
    errors = []
    for c in checks:
        try:
            msg = c.test(report)
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            msg = f"{c.name}: malformed report ({exc!r})"
        if msg:
            errors.append(msg)
    return errors
