"""The integer-indexed max flow and the flow finder against the reference
copies in ``flows_reference``.

``findflow`` must return the same t, colour, value, flow and certificate as
the from-scratch sweep over every (t, colour), and ``mfmc`` the same
certificate (flow h included) as the dict-based Edmonds-Karp, whose search
also takes every length-3 path that the greedy pass takes before it.  On a
leftmost host every edge at vertex 0 has its colour, so the winner is t = 1
in that colour with an empty flow; the explicit and modular hosts, whose
edge colours do not follow the vertex order, carry the cases with a flow
and the colour ties.
"""

import random
from dataclasses import replace

import pytest

import flows_reference as ref
from ramseydensity import flows
from ramseydensity.colorings import BLUE, RED, TwoColoring, other
from ramseydensity.errors import VerificationError
from ramseydensity.flows import CapacitatedBipartite, findflow, mfmc


def two_colors(rng, n):
    while True:
        vc = tuple(rng.choice((RED, BLUE)) for _ in range(n))
        if RED in vc and BLUE in vc:
            return vc


def leftmost_host(rng, n):
    return TwoColoring(n, "leftmost", vertex_colors=two_colors(rng, n))


def modular_host(rng, n):
    return TwoColoring(n, "modular", modulus=rng.randint(2, 6), vertex_colors=two_colors(rng, n))


def explicit_host(rng, n):
    p_red = rng.choice((0.1, 0.3, 0.5, 0.7, 0.9))
    red = frozenset((u, v) for u in range(n) for v in range(u + 1, n)
                    if rng.random() < p_red)
    return TwoColoring(n, "explicit", red_edges=red, vertex_colors=two_colors(rng, n))


def max_keys(chi, r, s):
    """Which colours and how many (t, colour) pairs reach the best value."""
    values = [(value, color) for _, color, _, value in ref.sweep(chi, r, s)]
    top = max(v for v, _ in values)
    return {c for v, c in values if v == top}, sum(v == top for v, _ in values)


def run_host(rng, n):
    """A leftmost host cut into colour runs of 1 to n vertices, so that long
    single-colour runs occur (one run is a one-colour host)."""
    colors, color = [], rng.choice((RED, BLUE))
    while len(colors) < n:
        colors += [color] * rng.randint(1, n)
        color = other(color)
    return TwoColoring(n, "leftmost", vertex_colors=colors[:n])


def leftmost_hosts():
    """Leftmost hosts of 1 to 200 vertices, random and cut into colour runs,
    and one-colour hosts of either colour."""
    rng = random.Random(15)
    hosts = []
    for n in (1, 2, 3, 4, 5, 7, 12, 20, 33, 64, 101, 200):
        hosts += [TwoColoring(n, "leftmost",
                              vertex_colors=[rng.choice((RED, BLUE)) for _ in range(n)]),
                  run_host(rng, n), run_host(rng, n)]
    hosts += [TwoColoring(n, "leftmost", vertex_colors=(color,) * n)
              for n in (1, 6, 40) for color in (RED, BLUE)]
    return hosts


@pytest.mark.parametrize("chi", leftmost_hosts(),
                         ids=lambda chi: f"{chi.n}-{''.join(chi.vertex_colors)[:12]}")
def test_findflow_on_a_leftmost_host_wins_at_t_1_in_the_colour_of_vertex_0(chi):
    rng = random.Random(chi.n)
    capacities = [(1, 1), (1, 4), (4, 1), (2, 3)] + [(rng.randint(1, 4), rng.randint(1, 4))]
    for r, s in capacities:
        got = findflow(chi, r, s)
        assert (got.t, got.color, got.h, got.value) == (1, chi.vertex_colors[0], (), 1)
        assert got.certificate == flows.FlowCertificate(D=0, h=(), Z=())
        if chi.n <= 33:  # the reference sweep is slow beyond
            # the bound behind the closed form: no (t, colour) passes 1
            assert max(value for *_, value in ref.sweep(chi, r, s)) == 1
            assert got == ref.findflow(chi, r, s)


@pytest.mark.parametrize("n", [2, 5, 9, 16, 24])
@pytest.mark.parametrize("host", [leftmost_host, modular_host, explicit_host])
def test_prefix_graph_matches_reference_at_t_1_in_both_colours(host, n):
    rng = random.Random(300 + n)
    with_flow = 0
    for _ in range(4):
        chi = host(rng, n)
        r, s = rng.sample(range(1, 5), 2)
        for t, color, cert, _ in ref.sweep(chi, r, s):
            if t > 1:
                break
            G = flows._prefix_graph(chi, color, r, s)
            assert mfmc(G) == cert
            # the graph holds every edge of colour C between C and vertex 0
            # when vertex 0 has the other colour, and nothing else
            assert G.Y == (() if chi.vertex_colors[0] == color else (0,))
            assert G.edges == frozenset((x, y) for x in G.X for y in G.Y
                                        if chi.color(x, y) == color)
            with_flow += bool(cert.h)
    # on a leftmost host every edge at vertex 0 has its colour, so the
    # other colour's network at t = 1 has no edge and no flow
    assert (with_flow == 0) == (host is leftmost_host), with_flow


@pytest.mark.parametrize("n,count", [(8, 20), (16, 10), (32, 6), (64, 3), (128, 1)])
def test_findflow_matches_reference_on_leftmost_hosts(n, count):
    rng = random.Random(1000 + n)
    t_ties = 0
    for k in range(count):
        chi = leftmost_host(rng, n) if k % 2 else run_host(rng, n)
        r, s = rng.randint(1, 4), rng.randint(1, 4)
        got = findflow(chi, r, s)
        assert got == ref.findflow(chi, r, s)
        # t = 1 reaches value 1 in the colour of vertex 0, and every edge at
        # vertex 0 has that colour, so the other colour's network has no
        # edge at t = 1 and stays below 1: no colour tie, and no flow
        assert (got.t, got.color, got.h) == (1, chi.vertex_colors[0], ())
        if n <= 32:  # the reference sweep is slow beyond
            colors, count_top = max_keys(chi, r, s)
            assert colors == {chi.vertex_colors[0]}
            t_ties += count_top > len(colors)
    assert t_ties >= count // 3 or n > 32, t_ties


def test_findflow_matches_reference_on_explicit_hosts():
    rng = random.Random(77)
    with_flow = color_ties = t_ties = 0
    for _ in range(250):
        n = rng.randint(2, 20)
        chi = explicit_host(rng, n)
        r, s = rng.randint(1, 3), rng.randint(1, 3)
        got = findflow(chi, r, s)
        assert got == ref.findflow(chi, r, s)
        colors, count = max_keys(chi, r, s)
        with_flow += bool(got.h)
        color_ties += len(colors) == 2
        t_ties += count > len(colors)
    # the suite must exercise nonempty flows and both tie-breaks
    assert with_flow >= 20 and color_ties >= 20 and t_ties >= 20, (with_flow, color_ties, t_ties)


def test_findflow_on_modular_hosts_matches_reference():
    rng = random.Random(78)
    with_flow = color_ties = 0
    for _ in range(150):
        n = rng.randint(2, 20)
        chi = modular_host(rng, n)
        r, s = rng.randint(1, 3), rng.randint(1, 3)
        got = findflow(chi, r, s)
        assert got == ref.findflow(chi, r, s)
        with_flow += bool(got.h)
        color_ties += len(max_keys(chi, r, s)[0]) == 2
    assert with_flow >= 20 and color_ties >= 20, (with_flow, color_ties)


@pytest.mark.parametrize("host", [leftmost_host, modular_host, explicit_host])
def test_findflow_builds_one_network_and_reads_at_most_one_mask(host, monkeypatch):
    rng = random.Random(5)
    hosts = [host(rng, 30) for _ in range(8)]
    assert {chi.vertex_colors[0] for chi in hosts} == {RED, BLUE}
    for chi in hosts:
        want = ref.findflow(chi, 2, 1)
        networks, colors, masks = [], [], []
        with monkeypatch.context() as m:
            original_init = flows._Residual.__init__
            original_color, original_mask = TwoColoring.color, TwoColoring.neighbor_mask
            m.setattr(flows._Residual, "__init__",
                      lambda self: networks.append(self) or original_init(self))
            m.setattr(TwoColoring, "color",
                      lambda self, u, v: colors.append((u, v)) or original_color(self, u, v))
            m.setattr(TwoColoring, "neighbor_mask",
                      lambda self, v, c: masks.append((v, c)) or original_mask(self, v, c))
            assert findflow(chi, 2, 1) == want
        # blue's network at t = 1 has vertex 0 on its prefix side only when
        # vertex 0 is red, and then reads that vertex's one blue mask
        assert len(networks) == 1 and colors == []
        assert masks == ([(0, BLUE)] if chi.vertex_colors[0] == RED else [])


@pytest.mark.parametrize("r,k,s", [(1, 3, 3), (1, 2, 3), (2, 2, 4), (2, 2, 5), (3, 1, 3),
                                   (3, 1, 4), (1, 0, 1)])
def test_blue_wins_with_vertex_0_red_iff_its_star_fills_vertex_0(r, k, s):
    # vertex 0 is red, with blue edges to the k blues 1..k and red edges to
    # the blues k+1, k+2; every other edge is red
    n = k + 4
    vc = (RED,) + (BLUE,) * (k + 2) + (RED,)
    red = frozenset((u, v) for u in range(n) for v in range(u + 1, n) if not (u == 0 and v <= k))
    chi = TwoColoring(n, "explicit", red_edges=red, vertex_colors=vc)
    got = findflow(chi, r, s)
    assert got == ref.findflow(chi, r, s)
    assert (got.t, got.value) == (1, 1)
    if r * k >= s:
        assert got.color == BLUE and got.certificate.D == s
        assert got.h and {e for e, _ in got.h} <= {(x, 0) for x in range(1, k + 1)}
    else:
        assert got.color == RED and got.h == () and got.certificate.D == 0


def test_findflow_calls_mfmc_once_and_checks_its_value(monkeypatch):
    rng = random.Random(8)
    chi = explicit_host(rng, 14)
    calls = []
    original = flows.mfmc

    def counted(G):
        calls.append(G)
        return original(G)

    monkeypatch.setattr(flows, "mfmc", counted)
    findflow(chi, 2, 2)
    assert len(calls) == 1

    monkeypatch.setattr(flows, "mfmc", lambda G: replace(original(G), D=original(G).D + 1))
    with pytest.raises(VerificationError, match="by the bound, but mfmc finds"):
        findflow(chi, 2, 2)


@pytest.mark.parametrize("r,s,name", [(0, 1, "r"), (1, 0, "s"), (0, -3, "r"), (1.5, 1, "r"),
                                      (1, 2.5, "s"), (True, 1, "r"), ("2", 1, "r")])
def test_findflow_rejects_bad_capacities_on_one_colour_hosts(r, s, name):
    chi = TwoColoring(4, "leftmost", vertex_colors=(RED,) * 4)
    with pytest.raises(ValueError, match=f"capacity {name} must be a positive integer"):
        findflow(chi, r, s)


def cli_shaped(rng, nx):
    """An ``rdl mfmc`` input: nx = ny, each X-vertex with 1-4 random edges."""
    r, s = rng.randint(1, 3), rng.randint(1, 3)
    edges = frozenset((i, nx + j) for i in range(nx)
                      for j in rng.sample(range(nx), rng.randint(1, min(4, nx))))
    return CapacitatedBipartite(tuple(range(nx)), tuple(range(nx, 2 * nx)), edges, r, s)


def small_random(rng):
    nx, ny = rng.randint(0, 8), rng.randint(0, 8)
    p = rng.random()
    edges = frozenset((i, nx + j) for i in range(nx) for j in range(ny) if rng.random() < p)
    return CapacitatedBipartite(tuple(range(nx)), tuple(range(nx, nx + ny)), edges,
                                rng.randint(1, 3), rng.randint(1, 3))


def scattered_ids(rng):
    """Unsorted, non-contiguous ids, X and Y interleaved."""
    nx, ny = rng.randint(1, 12), rng.randint(1, 12)
    ids = rng.sample(range(-50, 500), nx + ny)
    X, Y = tuple(ids[:nx]), tuple(ids[nx:])
    p = rng.random()
    edges = frozenset((x, y) for x in X for y in Y if rng.random() < p)
    return CapacitatedBipartite(X, Y, edges, rng.randint(1, 3), rng.randint(1, 3))


@pytest.mark.parametrize("make,count", [
    (lambda rng: cli_shaped(rng, rng.choice((10, 25, 50, 100, 200))), 30),
    (small_random, 300),
    (scattered_ids, 300),
], ids=["cli-shaped", "small-random", "scattered-ids"])
def test_mfmc_certificate_matches_reference(make, count):
    rng = random.Random(count)
    for _ in range(count):
        G = make(rng)
        assert mfmc(G) == ref.mfmc(G)


def long_paths(rng, nx):
    """Unequal capacities and X-degrees 1-8 on a Y side of another size, so
    that many augmenting paths are longer than one x -> y arc."""
    ny = rng.randint(max(1, nx // 2), 2 * nx)
    r, s = rng.sample(range(1, 5), 2)
    edges = frozenset((i, nx + j) for i in range(nx)
                      for j in rng.sample(range(ny), rng.randint(1, min(8, ny))))
    return CapacitatedBipartite(tuple(range(nx)), tuple(range(nx, nx + ny)), edges, r, s)


def count_augments(monkeypatch):
    """Per call of ``_Residual.augment``, the amount it pushed."""
    pushes = []
    original = flows._Residual.augment

    def counted(self):
        pushes.append(original(self))
        return pushes[-1]

    monkeypatch.setattr(flows._Residual, "augment", counted)
    return pushes


@pytest.mark.parametrize("nx,count", [(10, 30), (25, 12), (50, 6), (100, 3), (200, 2)])
def test_mfmc_matches_reference_when_paths_are_long(nx, count, monkeypatch):
    rng = random.Random(3000 + nx)
    pushes = count_augments(monkeypatch)
    with_long = 0
    for _ in range(count):
        G = long_paths(rng, nx)
        pushes.clear()
        assert mfmc(G) == ref.mfmc(G)
        # every search but the last, which finds no path, took a long path
        assert pushes[-1] == 0 and all(pushes[:-1])
        with_long += len(pushes) > 1
    assert with_long >= count // 4, with_long


def test_mfmc_searches_once_when_every_path_has_length_3(monkeypatch):
    rng = random.Random(0)
    nx = 400
    edges = frozenset((i, nx + j) for i in range(nx)
                      for j in rng.sample(range(nx), rng.randint(1, 4)))
    G = CapacitatedBipartite(tuple(range(nx)), tuple(range(nx, 2 * nx)), edges, 3, 1)
    want = ref.mfmc(G)
    pushes = count_augments(monkeypatch)
    assert mfmc(G) == want
    # Edmonds-Karp alone searches 367 times here: 366 unit paths of length 3,
    # then the search that finds none; the greedy pass leaves only that one
    assert want.D == 366
    assert pushes == [0]


# --------------------------------------------- X supplies that run out early

def saturating(rng, nx, s, p):
    """r = 1, so every X node runs out of supply on its first push: X-vertices
    join each Y-vertex with probability p, on a Y side of about nx / s."""
    ny = max(1, nx // s + rng.randint(-2, 2))
    edges = frozenset((i, nx + j) for i in range(nx) for j in range(ny) if rng.random() < p)
    return CapacitatedBipartite(tuple(range(nx)), tuple(range(nx, nx + ny)), edges, 1, s)


def count_dropped(monkeypatch):
    """Per call of ``_Residual.augment``, the roots it dropped for having no
    supply left."""
    dropped = []
    original = flows._Residual.augment

    def counted(self):
        before = len(self.roots)
        pushed = original(self)
        dropped.append(before - len(self.roots))
        return pushed

    monkeypatch.setattr(flows._Residual, "augment", counted)
    return dropped


@pytest.mark.parametrize("s,p", [(2, 0.5), (3, 0.5), (1, 0.04)],
                         ids=["r1-s2-dense", "r1-s3-dense", "r1-s1-sparse"])
def test_mfmc_matches_reference_when_source_arcs_saturate_early(s, p, monkeypatch):
    rng = random.Random(100 * s + int(100 * p))
    dropped = count_dropped(monkeypatch)
    pushes = count_augments(monkeypatch)
    for nx in (5, 12, 30, 60, 60, 120):
        G = saturating(rng, nx, s, p)
        assert mfmc(G) == ref.mfmc(G)
    # searches found paths on networks whose roots without supply they skip
    assert sum(dropped) > 0 and any(pushes), (sum(dropped), pushes)


def test_searches_keep_no_saturated_source_arc():
    # x0 and x1 fill y's room, so their supplies run out; x2's stays
    net = flows._Residual()
    xs = [net.add_node(1, 0) for _ in range(3)]
    y = net.add_node(0, 2)
    assert net.push_direct([net.add_arc(x, y, 5) for x in xs]) == 2
    assert net.augment() == 0
    assert net.roots == [xs[2]]
    # the failed search marks what x2 reaches: x2, then y, then x0 and x1
    # back along their flow
    assert [v for v, mark in enumerate(net.via) if mark != -1] == [*xs, y]
    assert net.via[xs[2]] == -2


def test_networks_hold_only_arcs_between_x_and_y(monkeypatch):
    rng = random.Random(44)
    networks, kinds = [], {}
    original_init, original_add = flows._Residual.__init__, flows._Residual.add_node

    def add_node(self, supply, room):
        # an X node has supply and a Y node room: no node is a source or sink
        assert (supply > 0) != (room > 0)
        u = original_add(self, supply, room)
        kinds[id(self), u] = supply > 0
        return u

    monkeypatch.setattr(flows._Residual, "__init__",
                        lambda self: networks.append(self) or original_init(self))
    monkeypatch.setattr(flows._Residual, "add_node", add_node)
    for make in (small_random, scattered_ids, lambda rng: long_paths(rng, 30),
                 lambda rng: saturating(rng, 30, 2, 0.5)):
        for _ in range(20):
            mfmc(make(rng))
    for host in (explicit_host, modular_host):
        for n in (8, 20, 40):
            findflow(host(rng, n), rng.randint(1, 3), rng.randint(1, 3))
    assert len(networks) == 80 + 6
    for net in networks:
        listed = []
        for u, arcs in enumerate(net.out):
            for a in arcs:
                # a leaves u, and joins an X node and a Y node
                assert net.head[a ^ 1] == u
                assert kinds[id(net), u] != kinds[id(net), net.head[a]]
                listed.append(a)
        # every arc is listed once, at its tail
        assert sorted(listed) == list(range(len(net.head)))
    assert sum(len(net.head) for net in networks) > 1000

