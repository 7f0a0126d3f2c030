"""The traced benchmark wraps package functions by name (``SPANS`` in
``perfbench/trace_child.py``); a renamed or deleted one breaks ``--trace 1``.
This loads that list, without installing any wrapper, and checks that every
entry still resolves on its owner with the kind it declares."""

import functools
import importlib.util
import inspect
from pathlib import Path

TRACE_CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "trace_child.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("trace_child", TRACE_CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # defines SPANS; wraps nothing until main()
    return module.SPANS


def _resolves(owner, attr: str, kind: str) -> bool:
    if kind == "function":
        return inspect.ismodule(owner) and inspect.isfunction(getattr(owner, attr, None))
    raw = vars(owner).get(attr) if inspect.isclass(owner) else None
    if kind == "method":
        return inspect.isfunction(raw)
    if kind == "classmethod":
        return isinstance(raw, classmethod)
    if kind == "cached_property":
        return isinstance(raw, functools.cached_property)
    return False


def test_every_traced_span_resolves_with_its_kind():
    spans = _load_spans()
    assert spans
    missing = [
        (getattr(owner, "__name__", owner), attr, kind)
        for _layer, _group, owner, attr, kind in spans
        if not _resolves(owner, attr, kind)
    ]
    assert missing == []
