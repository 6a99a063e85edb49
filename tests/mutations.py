"""Seeded mutations of line-based input text, shared by the edge-list reader
differential test and the CLI fuzzer.

``mutate(rng, text)`` applies one mutation drawn by ``rng`` to a text whose
lines end in '\\n': it drops, duplicates or swaps a line; adds a field;
puts a non-integer, an out-of-range or a negative number in place of a
field; turns a two-field row into a self-loop or appends it reversed;
moves the header's last number by one; inserts a blank line; or breaks the
lines with another of the breaks ``str.splitlines`` knows.  With
``wild=True`` it may also truncate the text or insert non-ASCII text.
"""

BREAKS = ["\r", "\r\n", "\f", "\x1c", "\u2028"]
NON_INTEGERS = ["x", "1.5", "0x1", "1e3", "nan", "\u0661"]
NON_ASCII = ["\xe9", "\xa0", "\u2003", "\u0663", "\ufb01", "\U0001f600"]


def _swap_field(rng, line, new):
    words = line.split()
    if not words:
        return line
    words[rng.randrange(len(words))] = new(words[rng.randrange(len(words))])
    return " ".join(words)


def mutate(rng, text, wild=False):
    end = "\n" if text.endswith("\n") else ""
    body = text.split("\n")[:-1] if end else text.split("\n")
    kinds = ["drop", "duplicate", "swap", "field", "nonint", "range", "negative", "loop",
             "reverse", "header", "blank", "break"]
    if wild:
        kinds += ["truncate", "nonascii"]
    kind = rng.choice(kinds)
    k = rng.randrange(len(body)) if body else 0
    if not body and kind not in ("blank", "nonascii"):
        kind = "blank"
    if kind == "drop":
        del body[k]
    elif kind == "duplicate":
        body.insert(rng.randrange(len(body) + 1), body[k])
    elif kind == "swap":
        j = rng.randrange(len(body))
        body[k], body[j] = body[j], body[k]
    elif kind == "field":
        body[k] += " " + rng.choice(["0", "1", "7"])
    elif kind == "nonint":
        body[k] = _swap_field(rng, body[k], lambda w: rng.choice(NON_INTEGERS))
    elif kind == "range":
        body[k] = _swap_field(rng, body[k], lambda w: str(rng.choice([3, 5, 9, 40, 99])))
    elif kind == "negative":
        body[k] = _swap_field(rng, body[k], lambda w: "-" + w.lstrip("-"))
    elif kind == "loop":
        words = body[k].split()
        if len(words) == 2:
            body[k] = f"{words[0]} {words[0]}"
    elif kind == "reverse":
        body.append(" ".join(body[k].split()[::-1]))
    elif kind == "header":
        words = body[0].split()
        if words and words[-1].lstrip("-").isdecimal():
            words[-1] = str(int(words[-1]) + rng.choice([-1, 1]))
            body[0] = " ".join(words)
    elif kind == "blank":
        body.insert(rng.randrange(len(body) + 1), rng.choice(["", "  ", "\t"]))
    elif kind == "break":
        return rng.choice(BREAKS).join(body) + end
    elif kind == "truncate":
        return text[:rng.randrange(len(text) + 1)]
    elif kind == "nonascii":
        at = rng.randrange(len(text) + 1)
        return text[:at] + rng.choice(NON_ASCII) + text[at:]
    return "\n".join(body) + end
