"""Root-boundary mutual information on small graphs with pair observations."""

import math
from dataclasses import asdict
from itertools import product

import pytest

from treebp.spin_sync import MAX_BALL, MIResult, SyncGraph, mi_root_boundary

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def _brute_mi(graph, theta, epsilon):
    # direct KL form over (observations, root, boundary), pure dicts + fsum
    inside, boundary, edges = graph.vertices, graph.boundary, graph.edges
    delta = (1.0 - theta) / 2.0
    n = len(inside)
    pos = {v: i for i, v in enumerate(inside)}
    total = 0.0
    for reveal in product((0, 1), repeat=n):
        p_reveal = math.prod((1.0 - epsilon) if r else epsilon for r in reveal)
        if p_reveal == 0.0:
            continue
        joint = {}
        for sigma in product((-1, 1), repeat=n):
            for y in product((-1, 1), repeat=len(edges)):
                p = 0.5 ** n
                for (u, v), ye in zip(edges, y):
                    agree = sigma[pos[u]] * sigma[pos[v]] == ye
                    p *= (1.0 - delta) if agree else delta
                obs = (y, tuple(s for s, r in zip(sigma, reveal) if r))
                key = (obs, sigma[pos[graph.root]],
                       tuple(sigma[pos[v]] for v in boundary))
                joint[key] = joint.get(key, 0.0) + p
        po, pro, pdo = {}, {}, {}
        for (obs, r, d), p in joint.items():
            po[obs] = po.get(obs, 0.0) + p
            pro[(obs, r)] = pro.get((obs, r), 0.0) + p
            pdo[(obs, d)] = pdo.get((obs, d), 0.0) + p
        mi = math.fsum(p * math.log(p * po[obs] / (pro[(obs, r)] * pdo[(obs, d)]))
                       for (obs, r, d), p in joint.items() if p > 0.0)
        total += p_reveal * mi
    return total


def _whole_graph(spec):
    # the family's whole graph: vertex count, edges in the family's order, root
    family, *sizes = spec.replace("x", ":").split(":")
    a, b = (int(x) for x in (sizes + ["0"])[:2])
    if family == "path":
        return a, [(i, i + 1) for i in range(a - 1)], a // 2
    if family == "cycle":
        return a, [(i, (i + 1) % a) for i in range(a)], 0
    if family == "grid":
        edges = []
        for r in range(a):
            for c in range(b):
                if c + 1 < b:
                    edges.append((r * b + c, r * b + c + 1))
                if r + 1 < a:
                    edges.append((r * b + c, (r + 1) * b + c))
        return a * b, edges, (a // 2) * b + b // 2
    n = sum(a ** k for k in range(b + 1))
    return n, [((j - 1) // a, j) for j in range(1, n)], 0


def _searched_ball(spec, radius):
    # breadth-first search over the whole graph, then the induced edges
    n, edges, root = _whole_graph(spec)
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    dist, queue = {root: 0}, [root]
    for u in queue:
        for v in adj[u]:
            if v not in dist and dist[u] < radius:
                dist[v] = dist[u] + 1
                queue.append(v)
    inside = sorted(dist)
    return (tuple(inside), tuple(v for v in inside if dist[v] == radius),
            tuple((u, v) for u, v in edges if u in dist and v in dist))


def test_parse_families():
    path = SyncGraph.parse("path:9")
    assert (path.vertices, path.boundary, path.edges, path.root, path.radius) == \
        ((3, 4, 5), (3, 5), ((3, 4), (4, 5)), 4, 1)
    cyc = SyncGraph.parse("cycle:8")
    assert (cyc.vertices, cyc.boundary, cyc.edges, cyc.root) == \
        ((0, 1, 7), (1, 7), ((0, 1), (7, 0)), 0)
    grid = SyncGraph.parse("grid:3x4")
    assert (grid.vertices, grid.boundary, grid.edges, grid.root) == \
        ((2, 5, 6, 7, 10), (2, 5, 7, 10), ((2, 6), (5, 6), (6, 7), (6, 10)), 6)
    tree = SyncGraph.parse(" Tree:2:3 ", radius=2)
    assert (tree.vertices, tree.boundary, tree.edges, tree.root) == \
        (tuple(range(7)), (3, 4, 5, 6), ((0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)), 0)
    for bad in ("blob:3", "grid:3", "grid:3:4", "tree:2", "tree:2x3", "cycle:two", "path:9:1",
                "path", ""):
        with pytest.raises(ValueError, match="cannot parse graph spec"):
            SyncGraph.parse(bad)
    # a well-formed spec of an invalid graph reads as itself
    for bad, message in (("path:1", "path needs at least two vertices"),
                         ("cycle:2", "cycle needs at least three vertices"),
                         ("grid:1x1", "grid needs at least two vertices"),
                         ("tree:0:3", "tree needs arity and depth at least one")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            SyncGraph.parse(bad)


def test_graph_validation():
    with pytest.raises(ValueError, match="radius must be at least 1"):
        SyncGraph.path(3, radius=0)


def test_ball_extraction():
    g = SyncGraph.path(9, radius=2)
    assert (g.vertices, g.boundary, len(g.edges)) == ((2, 3, 4, 5, 6), (2, 6), 4)
    g = SyncGraph.grid(3, 4)
    assert len(g.vertices) == 5 and len(g.boundary) == 4 and len(g.edges) == 4
    # an odd cycle's ball wraps onto itself: the edge between its two boundary vertices stays
    g = SyncGraph.cycle(5, radius=2)
    assert (g.vertices, g.boundary, g.edges) == \
        ((0, 1, 2, 3, 4), (2, 3), ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0)))
    # each family writes down the same ball a search of its whole graph finds
    specs = ([f"path:{k}" for k in range(2, 12)] + [f"cycle:{k}" for k in range(3, 12)]
             + [f"grid:{r}x{c}" for r in range(1, 6) for c in range(1, 6) if r * c > 1]
             + [f"tree:{a}:{d}" for a in range(1, 4) for d in range(1, 4)])
    checked = 0
    for spec in specs:
        for radius in range(1, 6):
            want = _searched_ball(spec, radius)
            if len(want[0]) > MAX_BALL:
                with pytest.raises(ValueError, match=f"more than {MAX_BALL} vertices"):
                    SyncGraph.parse(spec, radius)
                continue
            g = SyncGraph.parse(spec, radius)
            assert (g.vertices, g.boundary, g.edges) == want, (spec, radius)
            checked += 1
    assert checked > 250


def test_information_reads_only_the_ball():
    # a huge graph costs its ball, and equal balls give equal results, field for field
    for big, small, radius in (("tree:2:22", "tree:2:2", 2), ("path:100000001", "path:9", 4),
                               ("cycle:100000000", "cycle:8", 3)):
        got = mi_root_boundary(SyncGraph.parse(big, radius), 0.8, 0.7)
        assert got.method == "exact" and got.boundary_size > 0
        assert got == mi_root_boundary(SyncGraph.parse(small, radius), 0.8, 0.7)


def test_exact_zero_shortcuts():
    g = SyncGraph.path(7, radius=2)
    for result in (mi_root_boundary(g, 0.7, 0.0), mi_root_boundary(g, 0.0, 0.8)):
        assert result.value == 0.0 and result.method == "exact"
    # radius beyond the eccentricity leaves no boundary
    whole = mi_root_boundary(SyncGraph.path(5, radius=10), 0.7, 0.8)
    assert whole.value == 0.0 and whole.boundary_size == 0


def test_exact_matches_brute_force():
    for graph, theta, eps in (
        (SyncGraph.path(5), 0.8, 0.9),
        (SyncGraph.path(5), 0.6, 0.5),
        (SyncGraph.cycle(5), 0.7, 0.6),
        (SyncGraph.tree(2, 2), 0.8, 0.7),
        (SyncGraph.grid(2, 3), 0.7, 0.6),
        (SyncGraph.cycle(6, radius=2), 0.8, 0.7),
        (SyncGraph.cycle(5), 0.7, 1.0),           # only the empty reveal has weight
    ):
        got = mi_root_boundary(graph, theta, eps)
        assert got.method == "exact"
        assert got.value == pytest.approx(_brute_mi(graph, theta, eps), abs=1e-12)


def test_radius_decay_on_center_of_path():
    values = [mi_root_boundary(SyncGraph.path(9, radius=r), 0.8, 0.9).value
              for r in (1, 2, 3, 4)]
    assert all(values[i] > values[i + 1] for i in range(3))
    assert values[0] == pytest.approx(0.39868147, abs=1e-6)
    assert values[3] == pytest.approx(0.08307346, abs=1e-6)


def test_monotone_in_erasure():
    g = SyncGraph.path(7, radius=2)
    values = [mi_root_boundary(g, 0.7, e).value for e in (0.0, 0.3, 0.6, 0.9, 1.0)]
    assert all(values[i] <= values[i + 1] + 1e-12 for i in range(4))


def test_sampled_agrees_with_exact():
    g = SyncGraph.path(7, radius=2)
    exact = mi_root_boundary(g, 0.7, 0.5).value
    sampled = mi_root_boundary(g, 0.7, 0.5, exact=False, n_obs_samples=3000, seed=1)
    assert sampled.method == "sampled"
    assert abs(sampled.value - exact) <= 4.0 * sampled.stderr + 1e-9


def test_sampled_worker_invariance():
    g = SyncGraph.cycle(6, radius=2)
    one = mi_root_boundary(g, 0.8, 0.7, exact=False, n_obs_samples=2000,
                           seed=5, workers=1)
    two = mi_root_boundary(g, 0.8, 0.7, exact=False, n_obs_samples=2000,
                           seed=5, workers=3)
    assert one.value == two.value and one.stderr == two.stderr


def test_tree_ball_keeps_information_at_full_erasure():
    # supercritical correlation on a tree ball: reported, no tolerance
    result = mi_root_boundary(SyncGraph.tree(2, 3, radius=2), 0.8, 1.0)
    assert result.method == "exact"
    assert result.value > 0.0


def test_validation_and_caps():
    g = SyncGraph.path(7, radius=2)
    with pytest.raises(ValueError):
        mi_root_boundary(g, 1.0, 0.5)
    with pytest.raises(ValueError):
        mi_root_boundary(g, -0.1, 0.5)
    with pytest.raises(ValueError):
        mi_root_boundary(g, 0.5, 1.5)
    with pytest.raises(ValueError):
        mi_root_boundary(g, 0.5, 0.5, exact=False, n_obs_samples=1)
    with pytest.raises(ValueError):
        mi_root_boundary(SyncGraph.tree(2, 5, radius=5), 0.5, 0.5)  # ball > cap
    with pytest.raises(ValueError):
        mi_root_boundary(SyncGraph.tree(2, 3, radius=3), 0.5, 0.5, exact=True)


def test_result_dictionary():
    doc = asdict(mi_root_boundary(SyncGraph.path(5), 0.6, 0.5))
    assert {"value", "stderr", "method", "ball_size", "boundary_size",
            "n_edges"} <= set(doc)
    assert isinstance(MIResult(0.0, 0.0, "exact", 0, 1, 0, 0), MIResult)
