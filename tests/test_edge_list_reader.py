"""Differential test of the one edge-list reader against the two it replaced.

``FiniteGraph.from_text`` and ``rdl mfmc`` read their files through
``errors.edge_list_header`` and ``errors.edge_list_rows``;
``readers_reference`` keeps the readers each had before.  Seeded mutations
of valid texts must give the same edges or the same message, so the checks
also run in the same order.  The one message that changed on purpose is a
blank graph text's, which both readers now report as "empty graph file".
"""

import random

import readers_reference as ref
from mutations import mutate
from ramseydensity import cli, flows
from ramseydensity.families import FiniteGraph

SEED = 20
CASES = 800
RENAMED = {"empty graph text": "empty graph file"}


def graph_text(rng):
    n = rng.randrange(0, 9)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = rng.sample(pairs, rng.randrange(len(pairs) + 1))
    rows = [f"{u} {v}" if rng.random() < 0.5 else f"{v} {u}" for u, v in edges]
    return "".join(f"{line}\n" for line in [f"{n} {len(rows)}", *rows])


def mfmc_text(rng):
    nx, ny = rng.randrange(0, 5), rng.randrange(0, 5)
    pairs = [(i, j) for i in range(nx) for j in range(ny)]
    edges = rng.sample(pairs, rng.randrange(len(pairs) + 1))
    return "".join(f"{line}\n" for line in [f"{nx} {ny} {len(edges)}",
                                             *(f"{i} {j}" for i, j in edges)])


def mutated(make, case):
    rng = random.Random(SEED * 100003 + case)
    text = make(rng)
    for _ in range(rng.randrange(4)):
        text = mutate(rng, text)
    return text


def outcome(read, text):
    try:
        return read(text)
    except ValueError as exc:
        return RENAMED.get(str(exc), str(exc))


def test_graph_reader_matches_the_reference():
    for case in range(CASES):
        text = mutated(graph_text, case)
        assert outcome(FiniteGraph.from_text, text) == outcome(ref.graph_from_text, text), \
            (case, text)


class Built(Exception):
    """Raised in place of building the flow network, carrying its edges."""


def test_mfmc_reader_matches_the_reference(tmp_path, monkeypatch, capsys):
    def built(X, Y, edges, r, s):
        raise Built(len(X), len(Y), edges)

    monkeypatch.setattr(flows, "CapacitatedBipartite", built)
    path = tmp_path / "g.txt"
    for case in range(CASES):
        text = mutated(mfmc_text, case)
        path.write_bytes(text.encode())
        try:
            assert cli.main(["mfmc", "--graph", str(path), "--r", "1", "--s", "1"]) == 1
            got = capsys.readouterr().err
        except Built as exc:
            got = exc.args
        want = outcome(ref.mfmc_edges, path.read_text(encoding="utf-8"))
        assert got == (want if isinstance(want, tuple) else f"error: {want}\n"), (case, text)


def test_the_mutations_reach_every_check():
    # each kind of message of both readers comes up among the seeded cases
    kinds = ("empty graph file", "got 1 fields", "got 3 fields", "invalid literal",
             "must be nonnegative", "does not match", "with u != v", "with 0 <= i",
             "repeats the edge")
    messages = [str(outcome(read, mutated(make, case)))
                for make, read in ((graph_text, ref.graph_from_text), (mfmc_text, ref.mfmc_edges))
                for case in range(CASES)]
    assert [kind for kind in kinds if not any(kind in m for m in messages)] == []
