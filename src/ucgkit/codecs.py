"""Graph serialization: graph6, plain edge-list text, and DOT export.

graph6 is the standard printable-ASCII encoding of simple undirected
graphs: the vertex count followed by the upper triangle of the adjacency
matrix in column-major order, packed six bits per character with an
offset of 63.  Short form covers n <= 62; the '~'-prefixed long form is
accepted and produced for larger graphs.
"""

from __future__ import annotations

from .errors import MalformedInputError
from .graphs import Graph


def encode_graph6(g: Graph, header: bool = False) -> str:
    chunks: list[str] = [">>graph6<<"] if header else []
    chunks.append(_encode_n(g.n))
    bits: list[int] = []
    for j in range(1, g.n):
        for i in range(j):
            bits.append(g.adj_masks[i] >> j & 1)
    while len(bits) % 6:
        bits.append(0)
    for pos in range(0, len(bits), 6):
        val = 0
        for b in bits[pos:pos + 6]:
            val = (val << 1) | b
        chunks.append(chr(val + 63))
    return "".join(chunks)


def decode_graph6(text: str) -> Graph:
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise MalformedInputError("empty graph6 string")
    data = [ord(c) - 63 for c in s]
    if any(d < 0 or d > 63 for d in data):
        raise MalformedInputError("graph6 characters must be in range 63..126")
    n, data = _decode_n(data)
    if n < 1:
        raise MalformedInputError("graph6 graph must have at least one vertex")
    need = (n * (n - 1) // 2 + 5) // 6
    if len(data) != need:
        raise MalformedInputError(
            f"graph6 body for n={n} needs {need} characters, got {len(data)}")
    stream = _bit_stream(data)
    edges = []
    for j in range(1, n):
        for i in range(j):
            if next(stream):
                edges.append((i, j))
    return Graph(n, edges)


def _encode_n(n: int) -> str:
    if n <= 62:
        return chr(n + 63)
    if n <= 258047:
        return "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    raise MalformedInputError("graph too large for supported graph6 forms")


def _decode_n(data: list[int]) -> tuple[int, list[int]]:
    if data[0] != ord("~") - 63:
        return data[0], data[1:]
    if len(data) < 4:
        raise MalformedInputError("truncated graph6 long-form size")
    if data[1] == ord("~") - 63:
        raise MalformedInputError("8-byte graph6 sizes are not supported")
    n = (data[1] << 12) | (data[2] << 6) | data[3]
    return n, data[4:]


def _bit_stream(data: list[int]):
    for val in data:
        for shift in (5, 4, 3, 2, 1, 0):
            yield (val >> shift) & 1


def parse_edge_list(text: str) -> Graph:
    """Parse "n m" header plus m lines of "u v" (0-based indices)."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise MalformedInputError("empty edge-list input")
    head = lines[0].split()
    if len(head) != 2:
        raise MalformedInputError('edge-list header must be "n m"')
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise MalformedInputError("edge-list header must contain integers") from exc
    if len(lines) - 1 != m:
        raise MalformedInputError(f"expected {m} edge lines, got {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise MalformedInputError(f"bad edge line: {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise MalformedInputError(f"bad edge line: {ln!r}") from exc
        edges.append((u, v))
    try:
        return Graph(n, edges)
    except ValueError as exc:
        raise MalformedInputError(str(exc)) from exc


def format_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def load_graph_text(text: str) -> Graph:
    """Sniff the format: edge-list when the first line is two integers,
    otherwise graph6."""
    first = next((ln for ln in text.splitlines() if ln.strip()), "")
    parts = first.split()
    if len(parts) == 2:
        try:
            int(parts[0]), int(parts[1])
        except ValueError:
            pass
        else:
            return parse_edge_list(text)
    return decode_graph6(text)


_ROLE_COLORS = {
    "center": "gold",
    "periphery": "lightskyblue",
    "spine": "gray80",
    "apex-spine": "gray60",
}


def to_dot(g: Graph, roles: tuple[str, ...] | None = None, name: str = "ucg") -> str:
    """DOT text with role-based fill colors (center/periphery/spine)."""
    out = [f"graph {name} {{", "  node [style=filled, fillcolor=white];"]
    for v in range(g.n):
        attrs = [f'label="{g.label_of(v)}"']
        if roles is not None:
            base = roles[v].split(":", 1)[0]
            color = _ROLE_COLORS.get(base)
            if color:
                attrs.append(f'fillcolor="{color}"')
        out.append(f"  {v} [{', '.join(attrs)}];")
    for u, v in g.edges:
        out.append(f"  {u} -- {v};")
    out.append("}")
    return "\n".join(out) + "\n"
