"""Reference copy of the two edge-list readers as they were before they
shared ``errors.edge_list_header`` and ``errors.edge_list_rows``.

``graph_from_text`` is ``FiniteGraph.from_text`` and ``mfmc_edges`` the
reading path of ``cli.cmd_mfmc``, up to the edge set it hands to
``CapacitatedBipartite``, with ``cli._mfmc_edges`` as it was.  Each kept its
own header check, bulk row pass and first-bad-line walk.  They are kept only
as the oracle for the differential tests.
"""

from itertools import chain

from ramseydensity.cli import MFMC_MAX_VERTICES, _check_bound
from ramseydensity.errors import fields
from ramseydensity.families import FiniteGraph


def graph_from_text(text):
    """The graph of an edge-list text: 'n m', then m rows 'u v' with
    u != v and 0 <= u, v < n, no edge twice (u v and v u are one edge);
    blank lines are skipped, and an error names the line it is on."""
    cls = FiniteGraph
    lines = [(k, ln) for k, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines:
        raise ValueError("empty graph text")
    (k, head), rows = lines[0], lines[1:]
    n, m = fields(f"line {k}", head, "n m", int, int)
    if min(n, m) < 0:
        raise ValueError(f"header 'n m' must be nonnegative, got {head.strip()!r}")
    if len(rows) != m:
        raise ValueError("edge count does not match header")
    try:
        graph = cls(n, [(int(a), int(b)) for a, b in (ln.split() for _, ln in rows)])
    except ValueError:
        graph = None
    if graph is not None and len(graph.edges) == m:
        return graph
    # some row breaks a rule: look for the first one row by row
    first = {}
    for k, line in rows:
        u, v = fields(f"line {k}", line, "u v", int, int)
        if u == v or not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"line {k} {line.strip()!r}: expected 'u v' with "
                             f"u != v and 0 <= u, v < {n}")
        if first.setdefault((min(u, v), max(u, v)), k) != k:
            raise ValueError(f"line {k} {line.strip()!r}: repeats the edge on line "
                             f"{first[min(u, v), max(u, v)]}")
    return cls(n, first)


def _mfmc_edges(rows, lines, head, nx, ny):
    """The edges (i, nx + j) of an ``rdl mfmc`` file's 'i j' rows: rows holds
    the fields of each nonblank line of lines after line head.  A row that is
    not two integers with 0 <= i < nx and 0 <= j < ny, or that repeats an
    edge, is rejected with a message naming its line; rows are checked in
    C-level passes, and read one by one only to find the first bad line."""
    try:
        ends = [*map(int, chain.from_iterable(rows))] if set(map(len, rows)) <= {2} else []
    except ValueError:
        ends = []
    xs, ys = ends[::2], ends[1::2]
    if not xs or (min(xs) >= 0 and max(xs) < nx and min(ys) >= 0 and max(ys) < ny):
        edges = frozenset(zip(xs, map(nx.__add__, ys)))
        if len(edges) == len(rows):
            return edges
    first = {}
    for k, line in enumerate(lines[head:], start=head + 1):
        if not line.strip():
            continue
        i, j = fields(f"line {k}", line, "i j", int, int)
        if not (0 <= i < nx and 0 <= j < ny):
            raise ValueError(f"line {k} {line.strip()!r}: expected 'i j' with "
                             f"0 <= i < {nx} and 0 <= j < {ny}")
        if first.setdefault((i, j), k) != k:
            raise ValueError(f"line {k} {line.strip()!r}: repeats the edge "
                             f"on line {first[i, j]}")
    return frozenset((i, nx + j) for i, j in first)


def mfmc_edges(text):
    """(nx, ny, edges) of an ``rdl mfmc`` file's text, read as ``cmd_mfmc``
    read it."""
    lines = text.splitlines()
    k, head = next(((k, ln) for k, ln in enumerate(lines, start=1) if ln.strip()), (0, ""))
    if not head:
        raise ValueError("empty graph file")
    nx, ny, m = fields(f"line {k}", head, "nx ny m", int, int, int)
    if min(nx, ny, m) < 0:
        raise ValueError(f"header 'nx ny m' must be nonnegative, got {head.strip()!r}")
    _check_bound("nx + ny =", nx + ny, MFMC_MAX_VERTICES)
    rows = [*filter(None, map(str.split, lines[k:]))]
    if len(rows) != m:
        raise ValueError("edge count does not match header")
    return nx, ny, _mfmc_edges(rows, lines, k, nx, ny)
