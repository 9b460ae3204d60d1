"""Property tests of the two input readers: on any input, the graph reader
and the id-list reader return a result or raise a named error, and every
rational the graph reader accepts is written ``p`` or ``p/q``."""

import os
import re
import tempfile
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from dimerforge.cli import _read_id_lines
from dimerforge.errors import DimerforgeError, ParseError
from dimerforge.planar import PlanarGraph, dump_graph, parse_graph

_SMALL = st.integers(-1, 3).map(str)
_HUGE = st.sampled_from(["9" * 5000, "-" + "1" * 4000, "1" + "0" * 300])
_RATIONAL = st.builds("{}/{}".format, st.integers(-3, 3), st.integers(-1, 3))
_MALFORMED = st.sampled_from(["0.5", "-1.25", "1e3", "1e5000", "1E-2", "+1", "1_0", "1/2/3",
                              "0x1", "nan", "inf", "１", "/", "-"])
_JUNK = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=3)
_TOKEN = st.one_of(st.sampled_from(["v", "e", "x", "#"]), _SMALL, _HUGE, _RATIONAL,
                   _MALFORMED, _JUNK)


@st.composite
def _graph_lines(draw):
    """A small drawing in the file format (often valid, sometimes crossing,
    disconnected or naming a missing vertex), sometimes with up to two
    tokens replaced or a junk line added."""
    coord = _SMALL | st.builds("{}/{}".format, st.integers(-3, 3), st.integers(1, 3))
    n = draw(st.integers(1, 5))
    lines = [f"v {i} {draw(coord)} {draw(coord)}" for i in range(n)]
    pairs = draw(st.lists(st.sampled_from(list(combinations(range(n), 2)) or [(0, 0)]),
                          unique=True, max_size=6))
    for k, (u, v) in enumerate(pairs):
        weight = draw(st.sampled_from(["", " 2", " 1/3", " 0"]))
        lines.append(f"e {k} {u} {v}{weight}")
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        i = draw(st.integers(0, len(lines) - 1))
        parts = lines[i].split()
        parts[draw(st.integers(0, len(parts) - 1))] = draw(_MALFORMED | _TOKEN)
        lines[i] = " ".join(parts)
    if draw(st.integers(0, 3)) == 0:
        lines.append(" ".join(draw(st.lists(_TOKEN, max_size=5))))
    return draw(st.permutations(lines))


@settings(max_examples=300, deadline=None)
@given(_graph_lines(), st.booleans())
def test_parse_graph_returns_a_graph_or_a_named_error(lines, require_connected):
    text = "\n".join(lines)
    try:
        g = parse_graph(text, require_connected=require_connected)
    except DimerforgeError:
        return
    assert isinstance(g, PlanarGraph)
    for raw in text.splitlines():
        record, *fields = raw.split("#", 1)[0].split() or [""]
        for x in fields[1:] if record == "v" else fields[3:]:
            assert re.fullmatch("-?[0-9]+(/[0-9]+)?", x), f"{x!r} is not p or p/q"
    # whatever loads is written back in the documented grammar
    again = parse_graph(dump_graph(g), require_connected=require_connected)
    assert again.graph_id == g.graph_id


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=40)
       | st.text(st.characters(blacklist_categories=("Cs",)), max_size=40).map(str.encode)
       | st.lists(st.one_of(_SMALL, _HUGE, _JUNK, st.sampled_from([",", " ", "#", "\n"])),
                  max_size=12).map(lambda tokens: "".join(tokens).encode()))
def test_read_id_lines_yields_int_lists_or_a_parse_error(content):
    fd, path = tempfile.mkstemp(suffix=".txt")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(content)
        try:
            rows = list(_read_id_lines(path))
        except ParseError:
            return
    finally:
        os.unlink(path)
    for lineno, ids in rows:
        assert isinstance(lineno, int) and all(isinstance(i, int) for i in ids)
