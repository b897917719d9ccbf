"""Root-boundary mutual information on small graphs with pair observations."""

import math
from itertools import product

import pytest

from treebp.spin_sync import MAX_BALL, MIResult, SyncGraph, mi_root_boundary

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def _brute_mi(graph, theta, epsilon):
    # direct KL form over (observations, root, boundary), pure dicts + fsum
    inside, boundary, edges = graph.ball()
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


def test_parse_families():
    path = SyncGraph.parse("path:9")
    assert path.n_vertices == 9 and len(path.edges) == 8 and path.root == 4
    cyc = SyncGraph.parse("cycle:8")
    assert cyc.n_vertices == 8 and len(cyc.edges) == 8
    grid = SyncGraph.parse("grid:3x4")
    assert grid.n_vertices == 12 and len(grid.edges) == 17 and grid.root == 6
    tree = SyncGraph.parse("tree:2:3")
    assert tree.n_vertices == 15 and len(tree.edges) == 14 and tree.root == 0
    for bad in ("path:1", "blob:3", "grid:3", "tree:2", "cycle:two"):
        with pytest.raises(ValueError):
            SyncGraph.parse(bad)


def test_graph_validation():
    with pytest.raises(ValueError):
        SyncGraph(3, ((0, 1), (1, 2)), 0, 0)          # radius
    with pytest.raises(ValueError):
        SyncGraph(3, ((0, 1), (1, 2)), 5, 1)          # root range
    with pytest.raises(ValueError):
        SyncGraph(3, ((0, 1), (1, 0), (1, 2)), 0, 1)  # duplicate edge
    with pytest.raises(ValueError):
        SyncGraph(3, ((0, 0), (1, 2)), 0, 1)          # self loop
    with pytest.raises(ValueError):
        SyncGraph(4, ((0, 1), (2, 3)), 0, 1)          # disconnected


def test_ball_extraction():
    inside, boundary, edges = SyncGraph.path(9, radius=2).ball()
    assert sorted(inside) == [2, 3, 4, 5, 6]
    assert sorted(boundary) == [2, 6]
    assert len(edges) == 4
    inside, boundary, edges = SyncGraph.grid(3, 4).ball()
    assert len(inside) == 5 and len(boundary) == 4 and len(edges) == 4


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
    doc = mi_root_boundary(SyncGraph.path(5), 0.6, 0.5).as_dict()
    assert {"value", "stderr", "method", "ball_size", "boundary_size",
            "n_edges"} <= set(doc)
    assert isinstance(MIResult(0.0, 0.0, "exact", 0, 1, 0, 0), MIResult)
