"""The subspace arrangement report: its checks and its builder."""

from __future__ import annotations

from .. import arrangements as arrangement_mod
from . import (OMIT, _MENGER, _SMALL_CASES, Check, _diam_value, _graph_stats, _run_checks,
               _small_case_verdict, _unless)


def _verify_certificate(g, arr, rep):
    rc = rep.regularity_check
    cut = f"; cut {list(map(str, rc.cut))}" if rc.cut else ""
    return rc.passed, f"caller-certified regularity {rc.required}: {rc.note}{cut}"


def _verify_complete(g, *_objects):
    ok = g.is_complete()
    return ok, f"complete = {ok}"


def _arrangement_small_cases(arr, rep) -> list[str]:
    cases = [
        (arr.n_components == 1, "prime ideal"),
        (rep.common_height == 1, "hypersurface"),
        (rep.common_height == rep.n_vars - 1, "finite set of points"),
        (rep.n_vars <= 3, "at most 3 variables"),
    ]
    return [case for holds, case in cases if holds]


#: Objects: the dual graph (None when mixed), the arrangement and its
#: ``ArrangementReport``.
_ARRANGEMENT_CHECKS = (
    Check("multiplicity_component_count",
          "for subspace arrangements the multiplicity is the number of components",
          lambda g, arr, rep: _unless(rep.unmixed, OMIT),
          lambda g, arr, rep: (rep.multiplicity == arr.n_components,
                               f"{rep.multiplicity} = {arr.n_components}")),
    Check("regularity_connectivity",
          "Gorenstein arrangements of regularity r have r-connected dual graphs",
          lambda g, arr, rep: _unless(rep.unmixed, "arrangement is not height-unmixed")
          or _unless(rep.regularity_check is not None, "no regularity certificate supplied"
                     " (Gorensteinness of arrangements is not computed here)"),
          _verify_certificate),
    Check("height_one_complete", "height-1 ideals have complete dual graphs",
          lambda g, arr, rep: _unless(rep.common_height == 1, OMIT),
          _verify_complete),
    Check("points_complete", "ideals of finite point sets have complete dual graphs",
          lambda g, arr, rep: _unless(rep.common_height == rep.n_vars - 1, OMIT),
          _verify_complete),
    Check("small_case_hirsch", _SMALL_CASES,
          lambda g, arr, rep: _unless(rep.unmixed, OMIT) or _unless(
              _arrangement_small_cases(arr, rep), "no small case applies"),
          lambda g, arr, rep: _small_case_verdict(g, rep.common_height,
                                                  _arrangement_small_cases(arr, rep))),
    _MENGER,
)


def build_arrangement_report(
    arr,
    descriptor: str = "arrangement",
    regularity_certificate: int | None = None,
    ds_subset=None,
    sections_applied: int = 0,
) -> dict:
    rep = arrangement_mod.analyze_arrangement(
        arr, regularity_certificate=regularity_certificate, ds_subset=ds_subset
    )
    g = rep.dual_graph
    return {
        "kind": "arrangement",
        "input": descriptor,
        "n_vars": rep.n_vars,
        "n_components": arr.n_components,
        "heights": list(rep.heights),
        "unmixed": rep.unmixed,
        "height": rep.common_height,
        "multiplicity": rep.multiplicity,
        "sections_applied": sections_applied,
        "dual_graph": None if g is None else _graph_stats(g),
        "hirsch": None if g is None else {
            "diameter": _diam_value(rep.diameter),
            "height": rep.common_height,
            "verdict": rep.verdict.value,
        },
        "derksen_sidman_bound": rep.derksen_sidman,
        "checks": _run_checks(_ARRANGEMENT_CHECKS, (g, arr, rep)),
        "warnings": [] if rep.unmixed else ["arrangement is mixed: dual graph undefined"],
    }
