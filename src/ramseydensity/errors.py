"""The exception every internal consistency check raises.

Checks raise VerificationError explicitly instead of using ``assert``, so
they still run under ``python -O``.  The CLI maps it to exit code 2.
"""


class VerificationError(Exception):
    """A computed object failed one of its invariants; the message names the
    invariant and, where there is one, the index where it broke."""
