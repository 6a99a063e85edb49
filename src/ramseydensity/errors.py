"""The exception every internal consistency check raises, and the one reader
of a line of input text.

Checks raise VerificationError explicitly instead of using ``assert``, so
they still run under ``python -O``.  The CLI maps it to exit code 2.

``fields`` splits one line of a text input into its fields and converts
each; every module that reads text (coloring headers, graph and flow files,
function points) reads its lines through it, so a malformed line is always
reported as ``<where> '<line>': expected '<shape>', <reason>``, with lines
numbered from 1 as ``str.splitlines`` splits the text.  Graph and
``rdl mfmc`` files share one edge-list reader: a header of sizes, then
rows 'a b'.
"""

from itertools import chain


class VerificationError(Exception):
    """A computed object failed one of its invariants; the message names the
    invariant and, where there is one, the index where it broke."""


def shown(text):
    """text stripped, for an error message: a text longer than 80 characters
    is cut to its first 60, so a message never echoes a whole large line."""
    text = text.strip()
    return text if len(text) <= 80 else text[:60] + "..."


def fields(where, line, shape, *kinds):
    """The whitespace-separated fields of ``line``, one per entry of
    ``kinds``, each converted by its kind (such as ``int``).  A field count
    other than len(kinds), or a kind's ValueError, raises a ValueError that
    names ``where`` (such as 'line 3'), the line and its ``shape``."""
    parts = line.split()
    try:
        if len(parts) != len(kinds):
            raise ValueError(f"got {len(parts)} fields")
        return [kind(part) for kind, part in zip(kinds, parts)]
    except ValueError as exc:
        raise ValueError(f"{where} {shown(line)!r}: expected '{shape}', {exc}") from None


def edge_list_header(lines, shape):
    """(k, sizes): the number k of the first nonblank of lines (a text's
    splitlines()), counted from 1, and the sizes that ``shape`` (such as
    'n m') names there, nonnegative integers."""
    k, head = next(((k, line) for k, line in enumerate(lines, start=1) if line.strip()), (0, ""))
    if not head:
        raise ValueError("empty graph file")
    sizes = fields(f"line {k}", head, shape, *[int] * len(shape.split()))
    if min(sizes) < 0:
        raise ValueError(f"header '{shape}' must be nonnegative, got {shown(head)!r}")
    return k, sizes


def edge_list_rows(lines, head, m, shape, edge, rule):
    """frozenset(edge(a, b)) over the nonblank lines after line head, m rows
    'a b': each row two integers, edge(a, b) None for a row that breaks the
    caller's range rule (``rule`` says what it asks), and no two rows with
    one edge.  Valid rows are read in one bulk pass; only when it fails are
    the rows walked, to name the first bad line."""
    parts = [*filter(None, map(str.split, lines[head:]))]
    if len(parts) != m:
        raise ValueError("edge count does not match header")
    try:
        ends = [*map(int, chain.from_iterable(parts))] if set(map(len, parts)) <= {2} else ()
    except ValueError:
        ends = ()
    edges = frozenset(map(edge, ends[::2], ends[1::2]))
    if len(edges) == m and None not in edges:
        return edges
    first = {}
    for k, line in enumerate(lines[head:], start=head + 1):
        if not line.strip():
            continue
        e = edge(*fields(f"line {k}", line, shape, int, int))
        if e is None:
            raise ValueError(f"line {k} {shown(line)!r}: expected '{shape}' with {rule}")
        if first.setdefault(e, k) != k:
            raise ValueError(f"line {k} {shown(line)!r}: repeats the edge on line {first[e]}")
    return frozenset(first)
