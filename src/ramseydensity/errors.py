"""The exception every internal consistency check raises, and the one reader
of a line of input text.

Checks raise VerificationError explicitly instead of using ``assert``, so
they still run under ``python -O``.  The CLI maps it to exit code 2.

``fields`` splits one line of a text input into its fields and converts
each; every module that reads text (coloring headers, graph and flow files,
function points) reads its lines through it, so a malformed line is always
reported as ``<where> '<line>': expected '<shape>', <reason>``.
"""


class VerificationError(Exception):
    """A computed object failed one of its invariants; the message names the
    invariant and, where there is one, the index where it broke."""


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
        raise ValueError(f"{where} {line.strip()!r}: expected '{shape}', {exc}") from None
