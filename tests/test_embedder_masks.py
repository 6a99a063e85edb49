"""The mask-based embedder against the reference copy in
``embedder_reference``.

``build_W``, ``embed`` and ``verify_embedding`` must return equal backbones,
states and reports (or raise the same error) on seeded noisy two-class
hosts, as in the benchmark's embedding jobs, and on leftmost and modular
hosts shaded by ``a_good_shading``; building a corrupted backbone must
raise the reference ``validate_w``'s message.  Out-of-range backbone
vertices and images, a piece side that repeats a vertex, and a pattern edge
whose two ends map to one host vertex are the cases where the two differ on
purpose: the reference wraps negative ids, accepts the repeat or lets
``color()`` raise, the library rejects or reports them.
"""

import random
from dataclasses import replace

import pytest

import embedder_reference as ref
from ramseydensity.colorings import (BLUE, RED, Shading, TwoColoring, a_good_shading,
                                     clique_coloring, other)
from ramseydensity.embedder import (BipartitePiece, HPrefixSpec, IsolatedVertex, WStructure,
                                    build_W, embed, validate_w, verify_embedding)
from ramseydensity.families import OmegaFactor, complete_bipartite, path_graph


def outcome(fn, *args, **kwargs):
    """The value ``fn`` returns, or the type and message of the ValueError
    it raises."""
    try:
        return "ok", fn(*args, **kwargs)
    except ValueError as exc:
        return "error", type(exc), str(exc)


def two_class_host(rng, nl, nu, noise):
    """Red across the classes, blue inside the first, red inside the second,
    each inner edge flipped with probability ``noise``."""
    n = nl + nu
    red = set()
    for u in range(n):
        for v in range(u + 1, n):
            if u >= nl:
                inner_red = rng.random() >= noise
            elif v < nl:
                inner_red = rng.random() < noise
            else:
                inner_red = True
            if inner_red:
                red.add((u, v))
    return TwoColoring(n, "explicit", red_edges=frozenset(red))


def two_class_cases():
    """(label, chi, sh, spec, max_pieces) on noisy two-class hosts, with the
    top shade index 1 or 2 and r, s in {1, 2}."""
    for seed in range(40):
        rng = random.Random(seed)
        r, s = rng.choice(((1, 1), (1, 2), (2, 1), (2, 2)))
        copies = rng.randint(3, 8)
        nl, nu = rng.randint(6, 16), rng.randint(10, 30)
        chi = two_class_host(rng, nl, nu, rng.choice((0.0, 0.05, 0.2)))
        top = rng.choice((1, 2))
        sh = Shading(a=2, assignment=tuple(
            (BLUE, 1) if v < nl else (RED, top) for v in range(nl + nu)), min_count=2)
        spec = HPrefixSpec.omega_factor(complete_bipartite(r, s), copies, tuple(range(r)))
        yield f"two-class-{seed}", chi, sh, spec, rng.choice((None, 1, copies // 2))


def random_vertex_colors(rng, n):
    return tuple(rng.choice((RED, BLUE)) for _ in range(n))


def shaded_cases():
    """(label, chi, sh, spec, max_pieces) on leftmost and modular hosts with
    a_good_shading shadings: complete bipartite factors with r, s in {1, 2}
    for a = 2, the path on four vertices (three psi colours) for a = 3."""
    rng = random.Random(2024)
    k = 0
    for n in (12, 24, 40, 64):
        for rule in ("leftmost", "modular"):
            for a in (2, 3):
                for _ in range(2):
                    k += 1
                    if rule == "leftmost":
                        chi = TwoColoring(n, "leftmost", vertex_colors=random_vertex_colors(rng, n))
                    else:
                        chi = clique_coloring(rng.randint(2, 5), n)
                    sh = a_good_shading(chi, a, rng.randint(1, 4))
                    if a == 2:
                        r, s = rng.choice(((1, 1), (1, 2), (2, 1), (2, 2)))
                        factor, template = complete_bipartite(r, s), tuple(range(r))
                    else:
                        factor, template = path_graph(4), (0,)
                    spec = HPrefixSpec.omega_factor(factor, rng.randint(2, 6), template)
                    yield f"{rule}-{n}-a{a}-{k}", chi, sh, spec, rng.choice((None, 2))


CASES = list(two_class_cases()) + list(shaded_cases())


@pytest.fixture(scope="module")
def runs():
    """Per case, both sides' build_W, embed and verify_embedding outcomes."""
    out = []
    for label, chi, sh, spec, max_pieces in CASES:
        sides = []
        for mod in (ref, None):
            b = mod.build_W if mod else build_W
            e = mod.embed if mod else embed
            v = mod.verify_embedding if mod else verify_embedding
            W = outcome(b, chi, sh, spec.r, spec.s, max_pieces=max_pieces)
            state = outcome(e, chi, sh, W[1], spec, 300) if W[0] == "ok" else None
            report = (outcome(v, state[1], chi, spec, W[1])
                      if state and state[0] == "ok" else None)
            sides.append((W, state, report))
        out.append((label, chi, sh, spec, sides))
    return out


def test_backbone_state_and_report_equal_the_reference(runs):
    pieces = consumed = embedded = 0
    for label, chi, sh, spec, (want, got) in runs:
        assert got == want, label
        W, state, report = got
        if W[0] == "ok":
            pieces += bool(W[1].pieces())
        if state and state[0] == "ok":
            embedded += len(state[1].phi) > 0
            consumed += any(isinstance(c, BipartitePiece) for c in state[1].consumed)
            assert report[0] == "ok", label
    # the cases must reach pieces, consumed pieces and nonempty embeddings
    assert pieces >= 40 and consumed >= 30 and embedded >= 50, (pieces, consumed, embedded)


@pytest.mark.parametrize("budget", [0, 1, 2, 3, 7])
def test_states_cut_short_equal_the_reference(runs, budget):
    # the fixture's budget of 300 runs every case to its end; a small budget
    # stops most of them midway, where steps, incomplete and t_set_sizes must
    # agree too, and some run dry within it
    stopped = incomplete = 0
    for label, chi, sh, spec, (_, (W, _, _)) in runs:
        if W[0] != "ok":
            continue
        state = outcome(embed, chi, sh, W[1], spec, budget)
        assert state == outcome(ref.embed, chi, sh, W[1], spec, budget), label
        if state[0] == "ok":
            stopped += state[1].steps == budget and not state[1].incomplete
            incomplete += state[1].incomplete
            report = verify_embedding(state[1], chi, spec, W[1])
            assert report == ref.verify_embedding(state[1], chi, spec, W[1]), label
    assert stopped >= 25, stopped
    assert budget == 0 or incomplete >= 10, incomplete


def flip(chi, x, y):
    """An explicit copy of chi with the colour of xy flipped."""
    red = chi.neighbor_sets(RED)
    pairs = {(u, v) for u in range(chi.n) for v in range(u + 1, chi.n) if red[u] >> v & 1}
    return TwoColoring(chi.n, "explicit", red_edges=pairs ^ {(min(x, y), max(x, y))})


def reshade(sh, v, shade):
    assignment = list(sh.assignment)
    assignment[v] = shade
    return replace(sh, assignment=tuple(assignment))


def corruptions(chi, sh, W, r, s):
    """(label, chi, sh, components, r, s): W's components with one backbone
    invariant broken."""
    piece = W.pieces()[0]
    ci, cj = piece.shade_pair
    x, y = piece.X[-1], piece.Y[-1]
    comps = W.components
    yield "wrong-colour edge", flip(chi, x, y), sh, comps, r, s
    yield "Y-side shade", chi, reshade(sh, y, (W.color, ci + 1)), comps, r, s
    yield "X-side shade", chi, reshade(sh, x, (W.color, cj)), comps, r, s
    yield "side sizes", chi, sh, comps, r + 1, s
    yield "not disjoint", chi, sh, comps + (piece,), r, s
    lone = next((c for c in comps if isinstance(c, IsolatedVertex)), None)
    if lone is not None:
        yield "isolated shade", chi, reshade(sh, lone.v, (other(W.color), 1)), comps, r, s


def test_validate_w_rejects_corrupted_backbones_like_the_reference(runs):
    checked = set()
    for label, chi, sh, spec, (_, (W, _, _)) in runs:
        if W[0] != "ok" or not W[1].pieces():
            continue
        color = W[1].color
        for what, chi2, sh2, comps, r, s in corruptions(chi, sh, W[1], spec.r, spec.s):
            want = outcome(ref.validate_w, chi2, sh2, ref.Backbone(color, comps), r, s)
            assert want[0] == "error", (label, what)
            assert outcome(WStructure, color, comps, chi2, sh2, r, s) == want, (label, what)
            checked.add(what)
    assert len(checked) == 6, checked


@pytest.mark.parametrize("bad", [-1, -5, 40, 41])
@pytest.mark.parametrize("where", ["isolated", "X", "Y"])
def test_validate_w_rejects_backbone_vertices_outside_the_host(bad, where):
    n = 40
    chi = two_class_host(random.Random(1), 10, n - 10, 0.0)
    sh = Shading(a=2, assignment=tuple((BLUE, 1) if v < 10 else (RED, 1)
                                       for v in range(n)), min_count=2)
    if where == "isolated":
        comp = IsolatedVertex(bad, 1)
    else:
        X, Y = ((bad,), (20,)) if where == "X" else ((0,), (bad,))
        comp = BipartitePiece(X, Y, (1, 1))
    with pytest.raises(ValueError, match="backbone vertex outside the host"):
        WStructure(RED, (comp,), chi, sh, 1, 1)


@pytest.mark.parametrize("X,Y,r,s", [((0, 0), (20,), 2, 1), ((0,), (20, 20), 1, 2)])
def test_a_piece_side_that_repeats_a_vertex_is_rejected(X, Y, r, s):
    chi, _, W, _ = planted()
    piece = BipartitePiece(X, Y, (1, 1))
    assert ref.validate_w(chi, W.sh, ref.Backbone(RED, (piece,)), r, s) is None
    with pytest.raises(ValueError, match="piece side repeats a vertex"):
        WStructure(RED, (piece,), chi, W.sh, r, s)


def test_embed_checks_a_backbone_built_for_another_host():
    chi, spec, W, _ = planted()
    piece = W.pieces()[0]
    others = [(flip(chi, piece.X[0], piece.Y[0]), W.sh),
              (chi, reshade(W.sh, piece.Y[0], (RED, 2)))]
    for chi2, sh2 in others:
        want = outcome(validate_w, chi2, sh2, W, spec.r, spec.s)
        assert want[0] == "error"
        assert outcome(embed, chi2, sh2, W, spec, 300) == want


def planted():
    rng = random.Random(3)
    chi = two_class_host(rng, 10, 20, 0.05)
    sh = Shading(a=2, assignment=tuple((BLUE, 1) if v < 10 else (RED, 1)
                                       for v in range(30)), min_count=2)
    spec = HPrefixSpec.omega_factor(complete_bipartite(1, 2), 4, (0,))
    W = build_W(chi, sh, spec.r, spec.s, max_pieces=2)
    state = embed(chi, sh, W, spec, budget=300)
    assert verify_embedding(state, chi, spec, W).passed
    return chi, spec, W, state


def test_verify_embedding_reports_an_edge_mapped_to_one_vertex():
    chi, spec, W, state = planted()
    u, v = min(spec.graph().edges)
    assert u in state.phi and v in state.phi
    state.phi[v] = state.phi[u]
    with pytest.raises(ValueError, match="two distinct vertices"):
        ref.verify_embedding(state, chi, spec, W)
    report = verify_embedding(state, chi, spec, W)
    assert not report.passed
    assert "phi is not injective" in report.failures
    assert f"edge {(u, v)} maps to a non-{state.color} edge" in report.failures


@pytest.mark.parametrize("bad", [-1, 30, 99])
def test_verify_embedding_reports_images_outside_the_host(bad):
    chi, spec, W, state = planted()
    state.phi[min(state.phi)] = bad
    report = verify_embedding(state, chi, spec, W)
    assert not report.passed
    assert "phi maps outside the host 0..29" in report.failures
    assert report.density is not None


def on_all_red_host(nr, nb1, nb2):
    """The complete red host with nr vertices shaded (R, 3), then nb1 shaded
    (B, 1) and nb2 shaded (B, 2): red is the backbone colour and 3 its only
    shade, so every pattern component sits in the top shade."""
    n = nr + nb1 + nb2
    chi = TwoColoring(n, "explicit",
                      red_edges=[(u, v) for u in range(n) for v in range(u + 1, n)])
    shades = [(RED, 3)] * nr + [(BLUE, 1)] * nb1 + [(BLUE, 2)] * nb2
    return chi, Shading(a=3, assignment=tuple(shades), min_count=1)


def test_a_three_colour_embedding_cut_short_equals_the_reference():
    # copies of the path 0-1-2-3-4 with psi 1, 3, 1, 2, 1: a step maps the
    # out-reachable set of the least unmapped vertex, so a budget that ends
    # after it leaves vertex 3 (psi 2) mapped with the unmapped neighbour 4,
    # which the third progress condition checks
    chi, sh = on_all_red_host(16, 7, 7)
    spec = HPrefixSpec.omega_factor(path_graph(5), 3, (0,))
    assert spec.psi[:5] == (1, 3, 1, 2, 1)
    W = build_W(chi, sh, spec.r, spec.s, max_pieces=2)
    assert W == ref.build_W(chi, sh, spec.r, spec.s, max_pieces=2)
    reached = 0
    for budget in range(1, 12):
        state = embed(chi, sh, W, spec, budget)
        assert state == ref.embed(chi, sh, W, spec, budget), budget
        report = verify_embedding(state, chi, spec, W)
        assert report == ref.verify_embedding(state, chi, spec, W), budget
        assert report.passed, (budget, report.failures)
        reached += any(state.kappa[state.comp_of[v]] == 3 and spec.psi[v] < 3
                       and any(u not in state.phi for u in spec.adj[v]) for v in state.phi)
    assert reached
    # move that vertex's image into the wrong shade: both verifiers report it
    state = embed(chi, sh, W, spec, 3)
    assert state.phi[3] >= 23 and 4 not in state.phi  # vertex 3 sits in (B, 2)
    state.phi[3] = next(x for x in range(16, 23) if x not in state.phi.values())
    report = verify_embedding(state, chi, spec, W)
    assert report == ref.verify_embedding(state, chi, spec, W)
    assert f"vertex 3: image shade {(BLUE, 1)} != opposite 2" in report.failures
    # unmap vertex 1 (psi 3): vertex 0 (psi 1) now has an unmapped neighbour
    # above it, which the third condition forbids
    del state.phi[1]
    report = verify_embedding(state, chi, spec, W)
    assert report == ref.verify_embedding(state, chi, spec, W)
    assert "vertex 0: an unmapped neighbor has psi >= psi(v)" in report.failures


def more_slots_than_template(copies):
    """(chi, sh, W, spec): copies of an edge with s = 2, so each template's
    neighbourhood fills one of a piece's two Y vertices, on the planted host."""
    spec = HPrefixSpec(family=OmegaFactor(complete_bipartite(1, 1)), size=2 * copies,
                       psi=(1, 2) * copies,
                       templates={cid: (2 * cid,) for cid in range(copies)}, r=1, s=2)
    chi, _, _, _ = planted()
    sh = Shading(a=2, assignment=tuple((BLUE, 1) if v < 10 else (RED, 1)
                                       for v in range(30)), min_count=2)
    return chi, sh, build_W(chi, sh, spec.r, spec.s, max_pieces=2), spec


def test_a_piece_with_more_slots_than_its_template_fills_them_like_the_reference():
    # the piece's second Y vertex takes a fresh top-colour vertex of another copy
    chi, sh, W, spec = more_slots_than_template(6)
    assert W == ref.build_W(chi, sh, spec.r, spec.s, max_pieces=2) and W.pieces()
    state = embed(chi, sh, W, spec, 300)
    assert state == ref.embed(chi, sh, W, spec, 300)
    report = verify_embedding(state, chi, spec, W)
    assert report == ref.verify_embedding(state, chi, spec, W) and report.passed
    image = set(state.phi.values())
    filled = [c for c in state.consumed if isinstance(c, BipartitePiece)
              and set(c.Y) <= image]
    assert filled


def test_a_leftover_slot_without_a_fresh_top_vertex_ends_the_run_like_the_reference():
    # two copies: step 1 maps vertex 0, so step 2's piece takes copy 1's
    # template and neighbour, and the only other top vertex, 1, has a mapped
    # neighbour; the second Y vertex stays empty, and the run stops
    # incomplete with the piece consumed, which the containment check reports
    chi, sh, W, spec = more_slots_than_template(2)
    for budget in (1, 2, 3, 300):
        assert embed(chi, sh, W, spec, budget) == ref.embed(chi, sh, W, spec, budget), budget
    state = embed(chi, sh, W, spec, 300)
    assert state.incomplete and state.steps == 2
    piece = state.consumed[-1]
    assert isinstance(piece, BipartitePiece) and piece.Y[1] not in state.phi.values()
    report = verify_embedding(state, chi, spec, W)
    assert report == ref.verify_embedding(state, chi, spec, W)
    assert report.failures == ("a consumed component is not inside the image",)
