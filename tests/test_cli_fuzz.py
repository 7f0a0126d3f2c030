"""Fuzzing the four analysis commands: whatever the input file holds, the CLI
exits 0, 1, 2 or 3 and writes nothing to stderr but ``error:`` lines, never a
traceback.

Inputs stay small (at most 8 vertices, components or lines) so that every
analysis finishes quickly; each command also receives the other format of its
family (facet text as an edge list, line JSON as an arrangement, and so on).
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, strategies as st

from dualgraphs.cli import main

#: Eight distinct vertex tokens, so no input has more than 8 vertices.
_TOKENS = st.sampled_from(["1", "2", "3", "4", "5", "a", "-1", "é"])
_SPACE = st.sampled_from([" ", "  ", "\t"])


@st.composite
def _token_lines(draw, max_tokens):
    """Up to 8 lines of tokens, with comment, blank and repeated-token lines."""
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.integers(0, 5))
        if kind == 0:
            lines.append(draw(st.sampled_from(["", "# comment", "#1 2", "   "])))
        else:
            tokens = draw(st.lists(_TOKENS, max_size=max_tokens))
            if kind == 1 and tokens:
                tokens[0] = draw(st.sampled_from(["v", "#"]))
            lines.append(draw(_SPACE).join(tokens))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


#: Free text of at most 16 characters, so at most 8 tokens.
_RAW_TEXT = st.text(alphabet="12ab #\n\t{}[],:\"", max_size=16)
_FACET_TEXT = st.one_of(_token_lines(5), _RAW_TEXT)
_EDGE_TEXT = st.one_of(_token_lines(3), _RAW_TEXT)

_JUNK = st.sampled_from(["1/0", "x", "", "1_0", 0.5, True, None, [1], {}])


@st.composite
def _vectors(draw, length):
    """Vectors of ``length`` small integers or exact rational strings."""
    entry = st.one_of(st.integers(-2, 2), st.sampled_from(["1/2", "-3/4"]))
    return draw(st.lists(entry, min_size=length, max_size=length))


@st.composite
def _json_text(draw, data, paths):
    """The JSON of ``data``, or, one time in three, of ``data`` spoiled: one
    value at one of ``paths`` (key tuples) replaced by junk, a vector one
    entry short, a top-level key dropped, the text cut short, or free text."""
    kind = draw(st.integers(0, 14))
    if kind <= 9:
        return json.dumps(data)
    if kind in (10, 11) and paths:
        *keys, last = draw(st.sampled_from(paths))
        target = data
        for key in keys:
            target = target[key]
        if kind == 10:
            target[last] = draw(_JUNK)
        elif isinstance(target[last], list):
            target[last] = target[last][:-1]
    elif kind == 12:
        del data[draw(st.sampled_from(sorted(data)))]
    elif kind == 13:
        text = json.dumps(data)
        return text[: draw(st.integers(0, max(len(text) - 1, 0)))]
    else:
        return draw(_RAW_TEXT)
    return json.dumps(data)


def _leaf_paths(value, prefix=()):
    """Key tuples of every list item in ``value`` and of its dict values."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    out = []
    for key, item in items:
        out.append(prefix + (key,))
        if isinstance(item, (list, dict)):
            out.extend(_leaf_paths(item, prefix + (key,)))
    return out


@st.composite
def _arrangement_json(draw):
    n = draw(st.integers(1, 5))
    components = draw(st.lists(st.lists(_vectors(n), min_size=1, max_size=3),
                               min_size=1, max_size=8))
    data = {"variables": n, "components": components}
    return draw(_json_text(data, _leaf_paths(data)))


@st.composite
def _lines_json(draw):
    dim = draw(st.integers(2, 3))
    lines = draw(st.lists(st.builds(lambda p, q: {"points": [p, q]},
                                    _vectors(dim + 1), _vectors(dim + 1)),
                          min_size=1, max_size=8))
    data = {"ambient_dim": dim, "lines": lines}
    return draw(_json_text(data, _leaf_paths(data)))


_OUTPUT_FLAGS = st.tuples(
    st.sampled_from([[], ["--format", "json"], ["--format", "text"]]),
    st.sampled_from([[], ["--strict"]]),
).map(lambda parts: parts[0] + parts[1])


def _run(command: str, text: str, flags) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"
        path.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, str(path), *flags])
    assert code in (0, 1, 2, 3)
    assert all(line.startswith("error: ") for line in err.getvalue().splitlines())
    assert bool(err.getvalue()) == (code in (1, 3))


@given(
    st.one_of(_FACET_TEXT, _EDGE_TEXT),
    _OUTPUT_FLAGS,
    st.lists(st.sampled_from(["q", "gf:2", "gf:3", "gf:4", "r"]), max_size=2),
    st.sampled_from([[], ["--allow-void"], ["--max-hochster-n", "3"], ["--max-hochster-n", "-1"]]),
)
def test_analyze_complex_exits_cleanly_on_any_facet_text(text, flags, fields, extra):
    field_flags = [arg for f in fields for arg in ("--field", f)]
    _run("analyze-complex", text, flags + field_flags + extra)


@given(st.one_of(_EDGE_TEXT, _FACET_TEXT), _OUTPUT_FLAGS)
def test_check_graph_exits_cleanly_on_any_edge_text(text, flags):
    _run("check-graph", text, flags)


@given(
    st.one_of(_arrangement_json(), _arrangement_json(), _lines_json()),
    _OUTPUT_FLAGS,
    st.sampled_from([[], [], ["--section", "1"], ["--section", "2", "--seed", "5"],
                     ["--section", "-1"]]),
    st.sampled_from([[], ["--regularity-certificate", "0"], ["--regularity-certificate", "2"]]),
    st.sampled_from([[], [], [], ["--ds-subset", "1"], ["--ds-subset", "1,2"],
                     ["--ds-subset", "9"], ["--ds-subset", "x"]]),
)
def test_analyze_arrangement_exits_cleanly_on_any_json(text, flags, section, certificate, subset):
    _run("analyze-arrangement", text, flags + section + certificate + subset)


@given(st.one_of(_lines_json(), _lines_json(), _arrangement_json()), _OUTPUT_FLAGS)
def test_analyze_lines_exits_cleanly_on_any_json(text, flags):
    _run("analyze-lines", text, flags)
