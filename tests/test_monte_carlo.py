"""Sampled-tree estimators: single-tree BP, entropy, coupling, majority, mixing."""

import math
import threading
from dataclasses import asdict
from itertools import product
from math import comb

import numpy as np
import pytest

from treebp.bms import DeltaDistribution, SurveySpec, binary_entropy, delta_of
from treebp import _parallel, monte_carlo
from treebp.density_evolution import TreeModel
from treebp.llr_dist import edge_llr_map
from treebp.monte_carlo import (
    _GUIDE_SIZE,
    LLR_MAX,
    BoundaryCondition,
    _chunk_trees,
    _fold_deepest,
    _leaf_law,
    _NodeCodes,
    _nodes_per_tree,
    _parent_map,
    _reveal_weight,
    _root_deltas_chunk,
    _sample_chunk_levels,
    _upward_levels,
    _wsm_gap_chunk,
    _wsm_min_chunk,
    degradation_check,
    estimate_entropy,
    estimate_entropy_pair,
    majority_closed_forms,
    majority_stats,
    wsm_probe,
)

from _tree_oracle import bp_upward, sample_tree

# An invalid cast (NaN or inf to an index) must fail, not pass silently.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def test_boundary_condition_parse_and_validate():
    assert BoundaryCondition.parse("perfect").kind == "perfect"
    assert BoundaryCondition.parse("none").kind == "none"
    plus = BoundaryCondition.parse("plus:4.5")
    assert plus.kind == "plus" and plus.value == 4.5
    assert BoundaryCondition.parse("minus").value == LLR_MAX
    with pytest.raises(ValueError):
        BoundaryCondition.parse("sideways")
    with pytest.raises(ValueError):
        BoundaryCondition.plus(0.0)
    with pytest.raises(ValueError):
        BoundaryCondition("custom")


def test_sample_tree_node_counts():
    tree = sample_tree(TreeModel.regular(3, 0.5), 2, SurveySpec.bec(0.4), seed=7)
    assert tree.level_sizes == [1, 3, 9]
    assert tree.n_nodes == 13
    with pytest.raises(ValueError):
        sample_tree(TreeModel.regular(3, 0.5), -1, SurveySpec.trivial())


def test_sample_tree_spin_correlation_extremes():
    # theta near 1: every spin matches the root; theta = 0: leaf spins fair
    tight = sample_tree(TreeModel.regular(2, 0.999999999), 3, SurveySpec.trivial(), seed=1)
    root = tight.spins[0][0]
    assert all(np.all(level == root) for level in tight.spins)

    loose = sample_tree(TreeModel.regular(2, 0.0), 12, SurveySpec.trivial(), seed=2)
    leaves = loose.spins[12]
    assert abs(float(leaves.mean())) < 4.0 / math.sqrt(leaves.size)


def test_sample_tree_poisson_offspring():
    tree = sample_tree(TreeModel.poisson(3.0, 0.5), 2, SurveySpec.trivial(), seed=3)
    assert tree.level_sizes[0] == 1
    # offspring counts are whatever the draw produced; structure must agree
    assert tree.parents[1].size == tree.level_sizes[1]
    assert tree.parents[2].size == tree.level_sizes[2]
    if tree.level_sizes[2]:
        assert tree.parents[2].max() < tree.level_sizes[1]


def test_bp_upward_zero_boundary_trivial_survey():
    tree = sample_tree(TreeModel.regular(3, 0.5), 2, SurveySpec.trivial(), seed=3)
    assert bp_upward(tree, BoundaryCondition.none()) == 0.0


def test_bp_upward_single_chain_perfect_leaf():
    tree = sample_tree(TreeModel.regular(1, 0.6), 1, SurveySpec.trivial(), seed=5)
    want = math.log(1.6 / 0.4)
    got = bp_upward(tree, BoundaryCondition.perfect(), include_root_survey=False)
    assert abs(got) == pytest.approx(want, abs=1e-12)
    assert math.copysign(1.0, got) == tree.spins[1][0]


def test_bp_upward_theta_zero_leaves_only_survey():
    tree = sample_tree(TreeModel.regular(3, 0.0), 2, SurveySpec.bsc(0.2), seed=9)
    with_root = bp_upward(tree, BoundaryCondition.perfect())
    assert with_root == pytest.approx(float(tree.survey_llr[0][0]), abs=1e-12)
    without = bp_upward(tree, BoundaryCondition.perfect(), include_root_survey=False)
    assert without == 0.0


def test_bp_upward_depth_zero_is_boundary_value():
    tree = sample_tree(TreeModel.regular(3, 0.5), 0, SurveySpec.bec(0.2), seed=1)
    assert bp_upward(tree, BoundaryCondition.none()) == 0.0
    perfect = bp_upward(tree, BoundaryCondition.perfect())
    assert abs(perfect) == LLR_MAX


def test_bp_upward_custom_boundary_length_checked():
    tree = sample_tree(TreeModel.regular(2, 0.5), 2, SurveySpec.trivial(), seed=0)
    with pytest.raises(ValueError):
        bp_upward(tree, [1.0, 2.0, 3.0])
    val = bp_upward(tree, [0.0, 0.0, 0.0, 0.0])
    assert val == 0.0


def test_estimate_entropy_theta_zero_no_root_survey():
    result = estimate_entropy(TreeModel.regular(3, 0.0), SurveySpec.bsc(0.1), 3,
                              BoundaryCondition.perfect(), 200, seed=1,
                              include_root_survey=False)
    assert result.estimate == pytest.approx(math.log(2.0), abs=1e-15)
    assert result.stderr == 0.0


def test_estimate_entropy_depth_zero_perfect():
    result = estimate_entropy(TreeModel.regular(3, 0.5), SurveySpec.bec(0.5), 0,
                              BoundaryCondition.perfect(), 100, seed=1)
    assert result.estimate == pytest.approx(0.0, abs=1e-9)


def test_estimate_entropy_matches_depth_one_enumeration():
    # exact depth-1 oracle: d spins flip independently, survey only at root
    d, theta, alpha = 3, 0.7, 0.2
    sat = edge_llr_map(math.inf, theta)
    cost = math.log((1.0 - alpha) / alpha)
    delta = 0.5 * (1.0 - theta)
    h_exact = 0.0
    for flipped in range(d + 1):
        p_tree = comb(d, flipped) * delta ** flipped * (1.0 - delta) ** (d - flipped)
        for w_sign, p_w in ((1.0, 1.0 - alpha), (-1.0, alpha)):
            r = min(max(sat * (d - 2 * flipped) + w_sign * cost, -LLR_MAX), LLR_MAX)
            h_exact += p_tree * p_w * float(binary_entropy(1.0 / (1.0 + math.exp(abs(r)))))
    est = estimate_entropy(TreeModel.regular(d, theta), SurveySpec.bsc(alpha), 1,
                           BoundaryCondition.perfect(), 200000, seed=11)
    assert est.estimate == pytest.approx(h_exact, abs=4.0 * est.stderr)


def _root_entropy(r: float) -> float:
    return float(binary_entropy(1.0 / (1.0 + math.exp(abs(r)))))


def _poisson_probs(lam: float, n: int) -> np.ndarray:
    return np.array([math.exp(k * math.log(lam) - lam - math.lgamma(k + 1.0))
                     for k in range(n)])


def _skellam_probs(lam: float, flip: float, n: int) -> dict:
    """P(a - b = k) for independent a ~ Poisson(lam (1 - flip)) and
    b ~ Poisson(lam flip), by direct double enumeration of a, b < n."""
    joint = np.outer(_poisson_probs(lam * (1.0 - flip), n), _poisson_probs(lam * flip, n))
    net = np.subtract.outer(np.arange(n), np.arange(n)).ravel()
    probs = np.bincount(net + n - 1, weights=joint.ravel())
    return {k - n + 1: float(p) for k, p in enumerate(probs)}


@pytest.mark.parametrize("include_root_survey", [True, False], ids=["root", "noroot"])
@pytest.mark.parametrize("survey", [SurveySpec.bsc(0.2), SurveySpec.bec(0.5)],
                         ids=["bsc", "bec"])
def test_estimate_entropy_poisson_matches_depth_one_enumeration(survey, include_root_survey):
    # exact depth-1 oracle: a Poisson(lam) leaf block whose net spin sum,
    # unflipped minus flipped, is Skellam by Poisson thinning
    lam, theta = 4.0, 0.7
    sat = edge_llr_map(math.inf, theta)
    if not include_root_survey:
        root = [(0.0, 1.0)]
    elif survey.kind == "bsc":
        cost = math.log((1.0 - survey.param) / survey.param)
        root = [(cost, 1.0 - survey.param), (-cost, survey.param)]
    else:
        root = [(0.0, survey.param), (math.inf, 1.0 - survey.param)]
    h_exact = 0.0
    for net, p_net in _skellam_probs(lam, 0.5 * (1.0 - theta), 60).items():
        for w, p_w in root:
            r = min(max(sat * net + w, -LLR_MAX), LLR_MAX)
            h_exact += p_net * p_w * _root_entropy(r)
    est = estimate_entropy(TreeModel.poisson(lam, theta), survey, 1,
                           BoundaryCondition.perfect(), 200000, seed=11,
                           include_root_survey=include_root_survey)
    assert est.estimate == pytest.approx(h_exact, abs=4.0 * est.stderr)


@pytest.mark.parametrize("lam", [0.01, 4.0, 50.0, 800.0])
@pytest.mark.parametrize("kind", ["poisson", "skellam"])
def test_count_tables_match_their_laws(kind, lam):
    theta = 0.6
    flip = 0.5 * (1.0 - theta)
    n = int(lam + 20.0 * math.sqrt(lam)) + 60
    model = TreeModel.poisson(lam, theta)
    if kind == "poisson":
        values, probs = _leaf_law(model, "count")
        exact = dict(enumerate(_poisson_probs(lam, n)))
        mean = lam
    else:
        values, probs = _leaf_law(model, "net")
        exact = _skellam_probs(lam, flip, n)
        mean = lam * theta
    assert np.all(np.diff(values) == 1)
    assert np.all(probs > 0.0)
    assert abs(probs.sum() - 1.0) <= 1e-15
    dropped = sum(p for k, p in exact.items() if not values[0] <= k <= values[-1])
    assert dropped <= 1e-15
    got_mean = float(np.dot(values, probs))
    got_var = float(np.dot((values - mean) ** 2, probs)) - (got_mean - mean) ** 2
    assert got_mean == pytest.approx(mean, rel=1e-12)
    assert got_var == pytest.approx(lam, rel=1e-12)


def _edge_uniforms(cdf: np.ndarray) -> np.ndarray:
    """Every guide bin edge k/G and every CDF entry, each with its two
    neighbouring doubles, plus 0 and the largest double below 1."""
    points = np.concatenate([np.arange(_GUIDE_SIZE + 1) / _GUIDE_SIZE, cdf])
    u = np.concatenate([points, np.nextafter(points, 0.0), np.nextafter(points, 1.0),
                        [0.0, np.nextafter(1.0, 0.0)]])
    return np.unique(u[(u >= 0.0) & (u < 1.0)])


def _atoms(pairs) -> SurveySpec:
    return SurveySpec.from_delta(DeltaDistribution(pairs))


_THREE_ATOMS = _atoms([(0.3, 0.5), (0.1, 0.3), (0.0, 0.2)])

# Code laws whose CDFs the guide table must read exactly: the Poisson count
# laws of upper levels, Skellam leaf laws and surveys with many atoms.
_GUIDE_LAWS = {
    **{f"poisson{lam:g}": (TreeModel.poisson(lam, 0.6), None, False, "count", True)
       for lam in (0.01, 4.0, 50.0, 800.0)},
    "skellam4": (TreeModel.poisson(4.0, 0.6), SurveySpec.bsc(0.1), False, "net", True),
    "skellam50": (TreeModel.poisson(50.0, 0.6), None, True, "net", True),
    "three": (TreeModel.poisson(3.0, 0.7), _THREE_ATOMS, False, "count", True),
    "four": (TreeModel.regular(3, 0.7),
             _atoms([(0.4, 0.25), (0.2, 0.25), (0.05, 0.3), (0.01, 0.2)]), True, None, True),
    "forty": (TreeModel.regular(2, 0.6), _atoms([(0.5 * (k + 0.5) / 40, 1.0 / 40)
                                                  for k in range(40)]), False, None, False),
}


@pytest.mark.parametrize("key", list(_GUIDE_LAWS))
def test_guide_lookup_equals_binary_search(key):
    law = _NodeCodes.of(*_GUIDE_LAWS[key])
    assert law.cdf[-1] == 1.0 and np.all(np.diff(law.cdf) >= 0.0)
    u = _edge_uniforms(law.cdf)
    u = np.concatenate([u, np.random.default_rng(1).random(20_000)])
    want = np.searchsorted(law.cdf, u, side="right")
    assert np.array_equal(law(u), want)
    # the guide settles most bins without a search: 0.63% of Poisson(4) count
    # codes search.  The Poisson(800) law holds two flipped copies of a count
    # CDF that alone splits 4.4% of the bins, and splits 7.9%.
    assert np.mean(law.guide < 0) <= (0.1 if key == "poisson800" else 0.05)


# Code laws: (model, survey or None, root, children's statistic, prune).
_CODE_LAWS = {
    "regular_bsc_net": (TreeModel.regular(2, 0.7), SurveySpec.bsc(0.2), False, "net", True),
    "regular_bec_net": (TreeModel.regular(3, 0.7), SurveySpec.bec(0.5), False, "net", True),
    "regular_bec_wsm": (TreeModel.regular(3, 0.7), SurveySpec.bec(0.5), False, "count", False),
    "poisson_bsc_net": (TreeModel.poisson(4.0, 0.8), SurveySpec.bsc(0.2), False, "net", True),
    "poisson_bec_count": (TreeModel.poisson(3.0, 0.6), SurveySpec.bec(0.4), False, "count", True),
    "poisson_bec_wsm": (TreeModel.poisson(3.0, 0.6), SurveySpec.bec(0.4), False, "count", False),
    "poisson_atoms_none": (TreeModel.poisson(3.0, 0.7), _THREE_ATOMS, False, None, True),
    "regular_trivial_net": (TreeModel.regular(3, 0.6), None, False, "net", True),
    "root_bec_net": (TreeModel.poisson(4.0, 0.7), SurveySpec.bec(0.5), True, "net", True),
    "root_unsurveyed_count": (TreeModel.poisson(4.0, 0.7), None, True, "count", True),
    "root_bec_count": (TreeModel.poisson(4.0, 0.7), SurveySpec.bec(0.5), True, "count", True),
    "regular_bsc_upper": (TreeModel.regular(2, 0.7), SurveySpec.bsc(0.2), False, None, True),
    "root_atoms_upper": (TreeModel.regular(3, 0.6), _THREE_ATOMS, True, None, True),
}
_TABLE_BOUNDARIES = [BoundaryCondition.perfect(), BoundaryCondition.none(),
                     BoundaryCondition.plus(), BoundaryCondition.plus(4.5),
                     BoundaryCondition.minus(), BoundaryCondition.minus(2.0)]


def _bits(x: float) -> int:
    return int(np.float64(x).view(np.int64))


@pytest.mark.parametrize("key", list(_CODE_LAWS))
def test_code_tables_match_the_per_node_formula(key):
    # each entry, recomputed node by node in scalar floats from the code's
    # draws, equals the table bit for bit (signed zeros included)
    model, survey, root, stat, prune = _CODE_LAWS[key]
    law = _NodeCodes.of(model, survey, root, stat, prune)
    mags = None
    if survey is not None:
        deltas = np.asarray(delta_of(survey).deltas)
        with np.errstate(divide="ignore"):
            mags = np.minimum(np.log1p(-deltas) - np.log(deltas), LLR_MAX)
    for c in range(law.cdf.size):
        if law.children is not None:
            n = 0 if law.closed[c] else model.d if model.kind == "regular" else law.stat[c]
            assert law.children[c] == n
        if mags is None:
            assert law.w is None
        else:
            assert _bits(law.w[c]) == _bits(float(law.sign[c]) * mags[law.atom[c]])
    sat = edge_llr_map(math.inf, model.theta)
    for boundary in _TABLE_BOUNDARIES:
        if boundary.kind in ("plus", "minus") and law.children is None:
            continue
        if boundary.kind == "perfect" and stat != "net":
            continue
        llr, msg = law.tables(boundary)
        assert llr.shape == msg.shape == (2, law.cdf.size)
        for row, parent in enumerate((-1, 1)):
            for c in range(law.cdf.size):
                spin = parent * int(law.spin[c])
                w = 0.0 if mags is None else float(spin * int(law.sign[c])) * mags[law.atom[c]]
                if boundary.kind == "perfect":
                    base = sat * float(spin * int(law.stat[c]))
                elif boundary.kind == "none":
                    base = 0.0
                else:
                    leaves = float(model.d) if model.kind == "regular" else float(law.stat[c])
                    sign = 1.0 if boundary.kind == "plus" else -1.0
                    base = sign * edge_llr_map(boundary.value, model.theta) * leaves
                if law.closed[c]:
                    r = w
                else:
                    r = base if mags is None else base + w
                r = min(max(r, -LLR_MAX), LLR_MAX)
                assert _bits(llr[row, c]) == _bits(r)
                assert _bits(msg[row, c]) == _bits(edge_llr_map(r, model.theta))
    if prune and survey is not None and delta_of(survey).deltas[-1] == 0.0:
        assert law.closed.any() and np.all(law.stat[law.closed] == 0)
        assert np.all(np.abs(law.tables(BoundaryCondition.none())[0][:, law.closed]) == LLR_MAX)
    else:
        assert not law.closed.any()


@pytest.mark.parametrize("key", list(_CODE_LAWS))
def test_perfect_and_none_code_tables_are_odd_in_the_parent_spin(key):
    law = _NodeCodes.of(*_CODE_LAWS[key])
    boundaries = [BoundaryCondition.none()]
    if _CODE_LAWS[key][3] == "net":
        boundaries.append(BoundaryCondition.perfect())
    for boundary in boundaries:
        for table in law.tables(boundary):
            assert np.array_equal(table[0], -table[1])


def _binomial_net_probs(d: int, flip: float) -> dict:
    return {d - 2 * k: comb(d, k) * flip ** k * (1.0 - flip) ** (d - k) for k in range(d + 1)}


@pytest.mark.parametrize("key", list(_CODE_LAWS))
def test_code_law_marginals_match_their_pmfs(key):
    model, survey, root, stat, prune = _CODE_LAWS[key]
    law = _NodeCodes.of(model, survey, root, stat, prune)
    cdf = law.cdf
    assert cdf[-1] == 1.0 and np.all(np.diff(cdf) >= 0.0)
    probs = np.diff(cdf, prepend=0.0)
    flip = 0.5 if root else model.flip
    assert abs(probs[law.spin == -1].sum() - flip) <= 1e-15
    assert abs(probs[law.spin == 1].sum() - (1.0 - flip)) <= 1e-15
    # survey atom and sign
    p_open = 1.0
    if survey is not None:
        dist = delta_of(survey)
        for a, (delta, weight) in enumerate(zip(dist.deltas, dist.weights)):
            flipped = probs[(law.atom == a) & (law.sign == -1)].sum()
            kept = probs[(law.atom == a) & (law.sign == 1)].sum()
            assert abs(flipped - weight * delta) <= 1e-15
            assert abs(kept - weight * (1.0 - delta)) <= 1e-15
            if delta == 0.0 and prune:
                p_open -= weight
    else:
        assert np.all(law.atom == -1)
    # leaf statistic, on the open codes
    if stat == "net" and model.kind == "regular":
        exact = _binomial_net_probs(int(model.d), model.flip)
    elif stat == "net":
        exact = _skellam_probs(model.d, model.flip, 60)
    elif stat == "count" and model.kind == "poisson":
        exact = dict(enumerate(_poisson_probs(model.d, 60)))
    else:
        exact = {0: 1.0}
    open_probs = probs[~law.closed]
    got = np.bincount(law.stat[~law.closed] - law.stat.min(), weights=open_probs)
    for v, p in exact.items():
        i = v - law.stat.min()
        q = got[i] if 0 <= i < got.size else 0.0
        assert abs(q - p_open * p) <= 1e-15, (v, q, p_open * p)


def _enumerated_depth_two_entropy(d, theta, survey, boundary):
    """Exact root entropy of a depth-2 regular tree, revealed nodes pruned
    to spin * LLR_MAX, by enumerating the root spin (a constant boundary
    breaks the symmetry) and every child's flip, survey outcome and leaf
    flips."""
    flip = 0.5 * (1.0 - theta)
    sat = edge_llr_map(math.inf, theta)
    if survey.kind == "bsc":
        cost = math.log((1.0 - survey.param) / survey.param)
        outcomes = [(cost, 1.0 - survey.param, False), (-cost, survey.param, False)]
    else:
        outcomes = [(0.0, survey.param, False), (LLR_MAX, 1.0 - survey.param, True)]
    nets = _binomial_net_probs(d, flip) if boundary.kind == "perfect" else {0: 1.0}
    h = 0.0
    for root in (1, -1):
        child = {}                 # law of one child's message
        for spin, p_spin in ((root, 1.0 - flip), (-root, flip)):
            for w, p_w, revealed in outcomes:
                for net, p_net in ({0: 1.0} if revealed else nets).items():
                    if revealed:
                        r = spin * LLR_MAX
                    else:
                        if boundary.kind == "perfect":
                            base = sat * spin * net
                        elif boundary.kind == "none":
                            base = 0.0
                        else:
                            base = edge_llr_map(boundary.value, theta) * d
                        r = min(max(base + spin * w, -LLR_MAX), LLR_MAX)
                    m = edge_llr_map(r, theta)
                    child[m] = child.get(m, 0.0) + p_spin * p_w * p_net
        for msgs in product(child.items(), repeat=d):
            p_children = math.prod(p for _, p in msgs)
            total = sum(m for m, _ in msgs)
            for w, p_w, revealed in outcomes:
                r = root * LLR_MAX if revealed else min(max(total + root * w, -LLR_MAX), LLR_MAX)
                h += 0.5 * p_children * p_w * _root_entropy(r)
    return h


@pytest.mark.parametrize("boundary", [BoundaryCondition.perfect(), BoundaryCondition.none(),
                                      BoundaryCondition.plus()], ids=["perfect", "none", "plus"])
@pytest.mark.parametrize("d, theta, survey", [(2, 0.7, SurveySpec.bsc(0.2)),
                                              (3, 0.7, SurveySpec.bec(0.5))],
                         ids=["regular2_bsc", "regular3_bec"])
def test_estimate_entropy_matches_depth_two_enumeration(d, theta, survey, boundary):
    h_exact = _enumerated_depth_two_entropy(d, theta, survey, boundary)
    est = estimate_entropy(TreeModel.regular(d, theta), survey, 2, boundary, 200000, seed=13)
    assert est.stderr > 0.0
    assert est.estimate == pytest.approx(h_exact, abs=4.0 * est.stderr)


@pytest.mark.parametrize("model, survey, depth", [
    (TreeModel.poisson(4.0, 0.8), SurveySpec.bsc(0.2), 7),
    (TreeModel.regular(4, 0.8), SurveySpec.bec(0.5), 8),
], ids=["poisson_bsc", "regular_bec"])
def test_perfect_boundary_draws_the_pairs_trees(model, survey, depth):
    # the benchmark's same-trees check: --boundary perfect and the pair draw
    # the same codes, so the perfect estimate is the pair's leaves estimate
    n = 2 * _chunk_trees(model, depth, _reveal_weight(survey)) + 40      # three chunks
    pairs = []
    for workers in (1, 2):
        single = estimate_entropy(model, survey, depth, BoundaryCondition.perfect(), n,
                                  seed=9, workers=workers)
        pair = estimate_entropy_pair(model, survey, depth, n, seed=9, workers=workers)
        assert single == pair.leaves
        pairs.append(pair)
    assert pairs[0] == pairs[1]


# Exact outputs of small runs, re-recorded when every level became one coded
# draw per node (each new estimate and level gap within 3 combined stderr of
# the old, each degradation bin's mean_delta - delta_tilde_center gap too);
# any later sampler edit that moves one bit fails here.
@pytest.mark.parametrize("run, expected", [
    (lambda: estimate_entropy_pair(TreeModel.poisson(4.0, 0.8), SurveySpec.bsc(0.2), 5, 3000,
                                   seed=21),
     {"leaves": {"estimate": 0.09197712643559386, "stderr": 0.0031037304299403523,
                 "n_samples": 3000, "seed": 21},
      "no_leaves": {"estimate": 0.09544709368522879, "stderr": 0.003158742133009364,
                    "n_samples": 3000, "seed": 21},
      "diff": {"estimate": 0.0034699672496349182, "stderr": 0.0006635000627212957,
               "n_samples": 3000, "seed": 21}}),
    (lambda: estimate_entropy_pair(TreeModel.regular(4, 0.8), SurveySpec.bec(0.5), 6, 5000,
                                   seed=22),
     {"leaves": {"estimate": 0.030217488020858663, "stderr": 0.0015493676249323468,
                 "n_samples": 5000, "seed": 22},
      "no_leaves": {"estimate": 0.030246522269176096, "stderr": 0.0015519174228686913,
                    "n_samples": 5000, "seed": 22},
      "diff": {"estimate": 2.903424831744031e-05, "stderr": 5.633340910912285e-05,
               "n_samples": 5000, "seed": 22}}),
    (lambda: estimate_entropy_pair(TreeModel.poisson(3.0, 0.7), SurveySpec.bec(0.4), 5, 3000,
                                   seed=23, include_root_survey=False),
     {"leaves": {"estimate": 0.2698733536395196, "stderr": 0.0043618977334482206,
                 "n_samples": 3000, "seed": 23},
      "no_leaves": {"estimate": 0.2702750929974174, "stderr": 0.004368593999970225,
                    "n_samples": 3000, "seed": 23},
      "diff": {"estimate": 0.0004017393578978293, "stderr": 0.00023933819180626395,
               "n_samples": 3000, "seed": 23}}),
    (lambda: estimate_entropy_pair(TreeModel.poisson(3.0, 0.7), _THREE_ATOMS, 4, 2000, seed=27),
     {"leaves": {"estimate": 0.17210474453083505, "stderr": 0.004825745085963645,
                 "n_samples": 2000, "seed": 27},
      "no_leaves": {"estimate": 0.17733661290146052, "stderr": 0.004853196459131483,
                    "n_samples": 2000, "seed": 27},
      "diff": {"estimate": 0.005231868370625435, "stderr": 0.0009097241370617489,
               "n_samples": 2000, "seed": 27}}),
    (lambda: estimate_entropy(TreeModel.poisson(3.0, 0.6), SurveySpec.bsc(0.3), 4,
                              BoundaryCondition.plus(), 2000, seed=24),
     {"estimate": 0.2807790330316491, "stderr": 0.005059292741657638,
      "n_samples": 2000, "seed": 24}),
    (lambda: degradation_check(TreeModel.poisson(3.0, 0.7), SurveySpec.bec(0.5), 4, 3000, 5,
                               seed=25),
     {"bins": [{"delta_tilde_center": 0.0004873799123259225,
                "mean_delta": 0.0004800037354023211, "stderr": 3.5382325639687606e-05,
                "n": 1800, "flagged": False},
               {"delta_tilde_center": 0.04635618849226608, "mean_delta": 0.04516042816280184,
                "stderr": 0.0017229170875203788, "n": 587, "flagged": False},
               {"delta_tilde_center": 0.2966692053365492, "mean_delta": 0.28877261249692465,
                "stderr": 0.005976726609457485, "n": 613, "flagged": False}],
      "n_flagged": 0, "n_skipped": 0, "n_samples": 3000, "seed": 25, "ok": True}),
    (lambda: wsm_probe(TreeModel.poisson(2.0, 0.4), SurveySpec.bsc(0.2), 5, 2000, seed=26),
     {"regime": "contraction", "dtheta": 0.8, "depth": 5, "n_samples": 2000, "seed": 26,
      "boundary_magnitude": 30.0,
      "level_gaps": [0.17978979288138663, 0.3854551426799586, 0.8004535682705822,
                     1.6125117485626634, 3.3904241866402294, 60.0],
      "level_gap_stderrs": [0.004302622723837283, 0.006014042849459237,
                            0.008278106677010188, 0.010520645724134473,
                            0.013404007642416829, 0.0],
      "measured_rate": 0.49640169690799374, "rate_bound": 0.8, "x_found": None,
      "margin": None, "min_llr_by_level": None, "min_llr": None, "persists": None,
      "status": "ok"}),
    (lambda: majority_stats(TreeModel.regular(3, 0.6), 0.15, 5, 5000, seed=4),
     {"kind": "regular", "d": 3.0, "theta": 0.6, "eta": 0.15, "depth": 5, "n_samples": 5000,
      "seed": 4, "sample_mean": 12.9448, "sample_mean_stderr": 0.3407815385307729,
      "sample_var": 580.6602850170034, "sample_var_stderr": 11.576707434912782,
      "closed_form_mean": 13.226975999999993, "closed_form_var": 570.9931528366078,
      "ratio": 3.4652249537967403, "ratio_closed_form": 3.263696526765108,
      "ratio_limit": 8.000000000000016, "chi2_lower_bound": 0.22395288263130148,
      "chi2_lower_bound_limit": 0.11111111111111091}),
    (lambda: majority_stats(TreeModel.poisson(2.5, 0.8), 0.1, 4, 5000, seed=6),
     {"kind": "poisson", "d": 2.5, "theta": 0.8, "eta": 0.1, "depth": 4, "n_samples": 5000,
      "seed": 6, "sample_mean": 12.9966, "sample_mean_stderr": 0.21969435771125764,
      "sample_var": 241.32805405081015, "sample_var_stderr": 6.302471377017676,
      "closed_form_mean": 12.8, "closed_form_var": 245.46250000000003,
      "ratio": 1.4287238859543216, "ratio_closed_form": 1.4981842041015625,
      "ratio_limit": 1.6666666666666665, "chi2_lower_bound": 0.41173885832932744,
      "chi2_lower_bound_limit": 0.375}),
], ids=["pair_poisson_bsc", "pair_regular_bec", "pair_poisson_bec_noroot",
        "pair_poisson_three_atoms", "plus_poisson", "degradation", "wsm_contraction",
        "majority_regular", "majority_poisson"])
def test_outputs_pinned_to_recorded_floats(run, expected):
    assert asdict(run()) == expected


@pytest.mark.parametrize("include_root_survey", [True, False], ids=["root", "noroot"])
@pytest.mark.parametrize("model, survey, depth", [
    (TreeModel.regular(3, 0.7), SurveySpec.bec(0.6), 5),
    (TreeModel.poisson(2.0, 0.6), SurveySpec.bec(0.5), 6),
], ids=["regular3", "poisson2"])
def test_pruned_pair_matches_unpruned_single_tree_oracle(model, survey, depth,
                                                         include_root_survey):
    # the oracle expands every node below a reveal; the batched sampler does not
    n_oracle = 1500
    oracle = {"perfect": [], "none": []}
    for seed in range(n_oracle):
        tree = sample_tree(model, depth, survey, seed=seed)
        for kind, values in oracle.items():
            r = bp_upward(tree, BoundaryCondition(kind), include_root_survey)
            values.append(_root_entropy(r))
    pair = estimate_entropy_pair(model, survey, depth, 20000, seed=7,
                                 include_root_survey=include_root_survey)
    for est, values in ((pair.leaves, oracle["perfect"]), (pair.no_leaves, oracle["none"])):
        mean = float(np.mean(values))
        se = float(np.std(values, ddof=1)) / math.sqrt(n_oracle)
        assert abs(est.estimate - mean) <= 3.0 * math.hypot(est.stderr, se)


def test_estimate_entropy_bec_depth_one_without_root_survey():
    # the root's own survey is excluded, so a revealed root must still get
    # its leaves: H = E h(sat * |d - 2 flipped|) over the binomial flips
    d, theta = 3, 0.7
    sat = edge_llr_map(math.inf, theta)
    delta = 0.5 * (1.0 - theta)
    h_exact = sum(comb(d, f) * delta ** f * (1.0 - delta) ** (d - f)
                  * _root_entropy(sat * (d - 2 * f)) for f in range(d + 1))
    model, survey = TreeModel.regular(d, theta), SurveySpec.bec(0.5)
    est = estimate_entropy(model, survey, 1, BoundaryCondition.perfect(), 100000,
                           seed=12, include_root_survey=False)
    assert est.estimate == pytest.approx(h_exact, abs=4.0 * est.stderr)
    blind = estimate_entropy(model, survey, 1, BoundaryCondition.none(), 1000,
                             seed=12, include_root_survey=False)
    assert blind.estimate == math.log(2.0) and blind.stderr == 0.0


def test_clipped_finite_survey_is_not_pruned():
    # bsc:1e-15 has magnitude 34.5, which clips to LLR_MAX, yet it is a noisy
    # atom: every node keeps its children
    model, n_trees, depth = TreeModel.regular(3, 0.7), 50, 4
    rng = np.random.default_rng(0)
    levels = _sample_chunk_levels(rng, model, SurveySpec.bsc(1e-15), depth, n_trees, "net",
                                  True, prune=True)
    codes, par = _store_deepest(rng, levels)
    assert levels.sizes == [n_trees * 3 ** j for j in range(depth)]
    assert all(par is None for par in levels.parents + [par])
    assert _leaf_count(levels, codes) == n_trees * 3 ** depth
    assert np.all(np.abs(levels.surveys[1]) == LLR_MAX)

    # an erasure survey reads 0 on open nodes and spin * LLR_MAX on revealed
    # ones, which get no children
    rng = np.random.default_rng(0)
    erasure = _sample_chunk_levels(rng, model, SurveySpec.bec(0.5), depth, n_trees, "net",
                                   True, prune=True)
    parents = erasure.parents + [_store_deepest(rng, erasure)[1]]
    assert erasure.sizes[0] == n_trees
    for j in range(depth - 1):
        is_open = erasure.surveys[j] == 0.0
        assert np.all(np.abs(erasure.surveys[j][~is_open]) == LLR_MAX)
        assert erasure.sizes[j + 1] == 3 * np.count_nonzero(is_open)
        assert np.array_equal(parents[j + 1], np.repeat(np.flatnonzero(is_open), 3))
    assert erasure.sizes[-1] < n_trees * 3 ** (depth - 1)


def test_chunk_plan_budgets_the_nodes_drawn():
    # without reveals the plan sizes chunks by the full tree
    model = TreeModel.regular(4, 0.8)
    assert _reveal_weight(SurveySpec.bsc(0.2)) == 0.0
    assert _reveal_weight(SurveySpec.trivial()) == 0.0
    assert _chunk_trees(model, 8) == 4_000_000 // (87381 + 1) == 45
    # bec:0.5 draws sum_j (4 * 0.5)^j = 511 nodes per depth-8 tree
    assert _reveal_weight(SurveySpec.bec(0.5)) == 0.5
    assert _chunk_trees(model, 8, 0.5) == 4096
    assert _chunk_trees(model, 11, 0.5) == 4_000_000 // (4095 + 1)
    # an excluded root survey never reveals the root: 1 + 4 * 2048 nodes
    assert _chunk_trees(model, 8, 0.0, include_root_survey=False) == 45
    assert _chunk_trees(model, 11, 0.5, include_root_survey=False) == 4_000_000 // 8193
    # the budget tracks the nodes a chunk actually draws: its levels down to
    # the deepest codes, plus the leaves those codes stand for
    for tree in (model, TreeModel.poisson(4.0, 0.8)):
        for root in (True, False):
            rng = np.random.default_rng(0)
            levels = _sample_chunk_levels(rng, tree, SurveySpec.bec(0.5), 6, 4000, "count",
                                          root, prune=True)
            codes, _ = _store_deepest(rng, levels)
            assert codes.size == levels.sizes[-1]
            drawn = sum(levels.sizes) / 4000
            assert drawn == pytest.approx(_nodes_per_tree(tree, 5, 0.5, root), rel=0.05)
            drawn = (sum(levels.sizes) + _leaf_count(levels, codes)) / 4000
            assert drawn == pytest.approx(_nodes_per_tree(tree, 6, 0.5, root), rel=0.05)


def test_tree_size_guard_bounds_the_expected_node_count():
    # x = d (1 - reveal) = 1.02: x^(depth+1) stays under 2^28 up to depth 979,
    # yet sum_j x^j passes 2^28 from depth 782 (2.8e9 nodes at depth 900)
    model = TreeModel.regular(2, 0.5)
    assert _nodes_per_tree(model, 781, 0.49) == 265_646_587
    for depth in (782, 900, 979):
        with pytest.raises(ValueError, match=rf"^depth {depth} needs about .* past the 2\^28"):
            _nodes_per_tree(model, depth, 0.49)
    # x = 1 counts depth + 1 nodes, and x = 2 keeps its limit of depth 27
    assert _nodes_per_tree(model, 2 ** 28 - 1, 0.5) == 2 ** 28
    with pytest.raises(ValueError, match="^depth 268435456 needs about 2.68e"):
        _nodes_per_tree(model, 2 ** 28, 0.5)
    assert _nodes_per_tree(model, 27, 0.0) == 2 ** 28
    with pytest.raises(ValueError, match=r"^depth 100000 needs about 2\^100000 nodes"):
        _nodes_per_tree(model, 100_000, 0.0)
    # an excluded root survey bounds the whole tree, not only its subtrees
    assert _nodes_per_tree(model, 27, 1e-9) < 2 ** 28
    with pytest.raises(ValueError, match="^depth 28 needs about 5.37e"):
        _nodes_per_tree(model, 28, 1e-9, include_root_survey=False)


# Boundary sets whose root estimators fold the deepest level, each with the
# leaf statistic its deepest codes carry (the rule of _root_deltas_chunk).
_FOLDS = [("net", (BoundaryCondition.perfect(), BoundaryCondition.none())),
          ("net", (BoundaryCondition.perfect(),)),
          (None, (BoundaryCondition.none(),)),
          ("count", (BoundaryCondition.plus(2.5),)),
          ("count", (BoundaryCondition.minus(2.5),))]


class _CountingUniforms:
    """Stands in for a Generator that has only random(n=None, out=None);
    counts the draws, out.size of them when out is given."""

    def __init__(self, seed: int):
        self.rng, self.drawn = np.random.default_rng(seed), 0

    def random(self, n: int | None = None, out: np.ndarray | None = None) -> np.ndarray:
        self.drawn += out.size if out is not None else n
        return self.rng.random(n, out=out)


@pytest.mark.parametrize("survey", [SurveySpec.bsc(0.2), SurveySpec.bec(0.5), _THREE_ATOMS,
                                    SurveySpec.trivial()], ids=["bsc", "bec", "atoms", "trivial"])
@pytest.mark.parametrize("model", [TreeModel.regular(3, 0.7), TreeModel.poisson(3.0, 0.7)],
                         ids=["regular", "poisson"])
def test_sampler_draws_one_uniform_per_node(model, survey):
    for prune, root, depth in product((True, False), (True, False), range(1, 5)):
        for stat, folded in _FOLDS:
            for boundaries in ((), folded):     # the deepest level drawn alone, then folded
                rng = _CountingUniforms(depth)
                levels = _sample_chunk_levels(rng, model, survey, depth, 40, stat, root, prune)
                _fold_deepest(rng, levels, boundaries)
                assert len(levels.sizes) == depth
                assert rng.drawn == sum(levels.sizes)
    for boundary in (BoundaryCondition.perfect(), BoundaryCondition.plus()):
        rng = _CountingUniforms(0)
        out = _root_deltas_chunk(rng, 40, model=model, survey=survey, depth=0,
                                 boundaries=(boundary,), include_root_survey=True)
        assert rng.drawn == 0 and out.shape == (1, 40)


def _store_deepest(rng, levels) -> tuple[np.ndarray, np.ndarray | None]:
    """The deepest level drawn whole, the oracle of the fold: each node's
    code and its parent's row (None when each parent has deepest_d
    contiguous children), from the blocks of monte_carlo._draw_deepest."""
    n = levels.sizes[-1]
    codes = np.empty(n, np.intp)
    par = None if levels.ends is None else np.empty(n, np.intp)

    def store(lo, hi, plo, phi, block_codes, block_par):
        codes[lo:hi] = block_codes
        if par is not None:
            np.add(block_par, plo, out=par[lo:hi])

    monte_carlo._draw_deepest(rng, levels, store)
    return codes, par


def _leaf_count(levels, codes: np.ndarray) -> int:
    """The leaves below a stored deepest level: its nodes' children."""
    return int(levels.law.children[codes].sum())


def _stored_entries(levels, codes, par, table: np.ndarray) -> np.ndarray:
    """Each stored deepest node's entry of a (parent spin, code) table."""
    spins = levels.parent_spins
    rows = np.repeat(np.arange(spins.size), levels.deepest_d) if par is None else par
    return table[(spins[rows] > 0).astype(np.intp), codes]


def _stored_sums(levels, codes, par, boundary: BoundaryCondition) -> np.ndarray:
    """A stored deepest level's per-parent sums, as the upward pass took them
    before the fold: every node's own entry of the full table, summed over
    the whole level by one reshape or bincount."""
    llr, msg = levels.law.tables(boundary)
    values = _stored_entries(levels, codes, par, msg if len(levels.sizes) > 1 else llr)
    if par is None:                                     # at depth 1 the roots' LLRs
        return values.reshape(-1, levels.deepest_d).sum(axis=1)
    # as floats even when there are no children (bincount returns int64 on empty input)
    return np.bincount(par, weights=values,
                       minlength=levels.parent_spins.size).astype(np.float64, copy=False)


def _check_fold(model, survey, depth, n_trees, root, seed=0):
    """Each boundary set's folded sums, and the root estimates taken from
    them, equal the stored computation on the same chunk, bit for bit."""
    for stat, boundaries in _FOLDS:
        rng = np.random.default_rng(seed)
        stored = _sample_chunk_levels(rng, model, survey, depth, n_trees, stat, root, True)
        codes, par = _store_deepest(rng, stored)
        rng = np.random.default_rng(seed)
        folded = _sample_chunk_levels(rng, model, survey, depth, n_trees, stat, root, True)
        _fold_deepest(rng, folded, boundaries)
        assert folded.sizes == stored.sizes
        out = _root_deltas_chunk(np.random.default_rng(seed), n_trees, model=model,
                                 survey=survey, depth=depth, boundaries=boundaries,
                                 include_root_survey=root)
        for boundary, sums, deltas in zip(boundaries, folded.sums, out):
            r = _stored_sums(stored, codes, par, boundary)
            assert np.array_equal(sums, r)
            for r in _upward_levels(r, stored, model.theta):     # the root's LLRs come last
                pass
            assert np.array_equal(deltas, 1.0 / (1.0 + np.exp(np.abs(r))))


@pytest.mark.parametrize("survey", [SurveySpec.trivial(), SurveySpec.bsc(0.2), _THREE_ATOMS,
                                    SurveySpec.bec(0.5)], ids=["trivial", "bsc", "atoms", "bec"])
@pytest.mark.parametrize("model", [TreeModel.regular(3, 0.7), TreeModel.poisson(3.0, 0.7)],
                         ids=["regular", "poisson"])
@pytest.mark.parametrize("block", [5, monte_carlo._DRAW_BLOCK], ids=["block5", "block"])
def test_folded_deepest_level_equals_the_stored_one(monkeypatch, model, survey, block):
    # regular trees are open under trivial and bsc surveys and have closed
    # nodes under the pruning ones; a block of 5 rows cuts every level
    monkeypatch.setattr(monte_carlo, "_DRAW_BLOCK", block)
    for root, depth in product((True, False), (1, 2, 3)):
        _check_fold(model, survey, depth, 60, root)


def test_fold_meets_every_block_edge(monkeypatch):
    blocks, empty = [], []      # each block's rows and its parents' child counts
    draw = monte_carlo._draw_deepest

    def recorded(rng, levels, fold):
        empty.append(levels.sizes[-1] == 0)
        counts = None if levels.ends is None else np.diff(levels.ends, prepend=0)

        def record(lo, hi, plo, phi, codes, par):
            blocks.append((hi - lo, None if counts is None else counts[plo:phi]))
            fold(lo, hi, plo, phi, codes, par)

        draw(rng, levels, record)

    monkeypatch.setattr(monte_carlo, "_draw_deepest", recorded)
    # 70,000 children per parent, past the real block of 65,536 rows
    _check_fold(TreeModel.poisson(70000.0, 0.99), SurveySpec.bsc(0.2), 2, 2, True)
    _check_fold(TreeModel.poisson(70000.0, 0.99), SurveySpec.bec(0.5), 2, 4, True, seed=1)
    assert any(counts.size == 1 and counts[0] > 65536 for _, counts in blocks)
    monkeypatch.setattr(monte_carlo, "_DRAW_BLOCK", 4)
    for model, survey, depth, n_trees in [
            (TreeModel.poisson(3.0, 0.7), SurveySpec.bsc(0.2), 3, 40),
            (TreeModel.regular(3, 0.7), SurveySpec.bec(0.5), 3, 40),
            (TreeModel.regular(5, 0.7), SurveySpec.trivial(), 2, 10),
            (TreeModel.poisson(3.0, 0.7), SurveySpec.bec(0.02), 3, 3),
            (TreeModel.poisson(0.05, 0.7), SurveySpec.trivial(), 2, 3)]:
        for root in (True, False):
            _check_fold(model, survey, depth, n_trees, root)
    cut = [(rows, counts) for rows, counts in blocks if counts is not None]
    assert any(counts.size == 1 and counts[0] > 4 for _, counts in cut)    # a parent past a block
    assert any(rows == 4 for rows, _ in cut)    # a block that ends on a parent's last child
    assert any(counts[0] == 0 for _, counts in cut)     # a childless parent at either edge
    assert any(counts[-1] == 0 for _, counts in cut)
    assert any(empty)                                   # a deepest level with no nodes


def _stored_probe(model, survey, depth, n_trees, magnitude, seed):
    """A probe chunk's statistics taken from its whole stored deepest level,
    as _wsm_gap_chunk and _wsm_min_chunk took them before the fold: per
    level (count, mean, M2) of the gap |r+ - r-| over the whole level, and
    the plus boundary's minimum."""
    rng = np.random.default_rng(seed)
    levels = _sample_chunk_levels(rng, model, survey, depth, n_trees, "count", True, False)
    codes, par = _store_deepest(rng, levels)
    stats, mins = np.zeros((depth + 1, 3)), np.full(depth + 1, math.inf)
    stats[depth], mins[depth] = (_leaf_count(levels, codes), 2.0 * magnitude, 0.0), magnitude
    passes = []
    for boundary in (BoundaryCondition.plus(magnitude), BoundaryCondition.minus(magnitude)):
        deepest = _stored_entries(levels, codes, par, levels.law.tables(boundary)[0])
        upper = (_upward_levels(_stored_sums(levels, codes, par, boundary), levels, model.theta)
                 if depth > 1 else ())
        passes.append([deepest, *upper])                            # levels depth-1, ..., 0
    for j, rp, rm in zip(range(depth - 1, -1, -1), *passes):
        g = np.abs(rp - rm)
        mean = g.mean() if g.size else 0.0
        g -= mean
        stats[j], mins[j] = (g.size, mean, np.dot(g, g)), rp.min()
    return stats, mins


@pytest.mark.parametrize("survey", [SurveySpec.trivial(), SurveySpec.bsc(0.2),
                                    SurveySpec.bec(0.5)], ids=["trivial", "bsc", "bec"])
@pytest.mark.parametrize("model", [TreeModel.regular(3, 0.3), TreeModel.poisson(3.0, 0.3)],
                         ids=["regular", "poisson"])
@pytest.mark.parametrize("block", [5, monte_carlo._DRAW_BLOCK], ids=["block5", "block"])
def test_probe_reads_the_folded_level_as_the_stored_one(monkeypatch, model, survey, block):
    # counts, leaf counts, minima and every level above the deepest are the
    # stored level's to the bit; the deepest level's moments merge block by
    # block, which moves its mean and M2 by rounding only
    monkeypatch.setattr(monte_carlo, "_DRAW_BLOCK", block)
    for depth in (1, 2, 3):
        want, want_mins = _stored_probe(model, survey, depth, 60, 2.5, seed=depth)
        task = dict(model=model, survey=survey, depth=depth, magnitude=2.5)
        got = _wsm_gap_chunk(np.random.default_rng(depth), 60, **task)
        assert np.array_equal(_wsm_min_chunk(np.random.default_rng(depth), 60, **task), want_mins)
        assert np.array_equal(got[:, 0], want[:, 0])
        above = [j for j in range(depth + 1) if j != depth - 1]
        assert np.array_equal(got[above], want[above])
        n, mean, m2 = want[depth - 1]
        assert got[depth - 1, 1] == pytest.approx(mean, rel=1e-14, abs=0.0)
        assert abs(got[depth - 1, 2] - m2) <= 1e-14 * (m2 + n * mean * mean)


def test_folded_chunks_stay_inside_a_smaller_arena(monkeypatch):
    # the stored deepest level (codes, parent map and one pass's + row)
    # took the arena to 26.9 MB on this call; folded, it reads 11.9 MB
    seen = {"top": 0, "heap": 0}
    empty = _parallel._Arena.empty

    def watched(self, n, dtype=np.float64):
        out = empty(self, n, dtype)
        seen["top"] = max(seen["top"], self.top)
        seen["heap"] += out.base is None
        return out

    monkeypatch.setattr(_parallel._Arena, "empty", watched)
    monkeypatch.setattr(monte_carlo._ARENA, "block", np.empty(0, np.uint8))  # just the reservation
    model, survey = TreeModel.poisson(4.0, 0.8), SurveySpec.bsc(0.2)
    assert 400 > 2 * _chunk_trees(model, 7)                 # three chunks
    estimate_entropy_pair(model, survey, 7, 400, workers=1)
    assert seen["top"] < 14e6 and seen["heap"] == 0
    # the probe folds its deepest level too, in both of its regimes: with the
    # level stored whole these calls took the arena to 21.2 and 13.0 MB;
    # folded, they read 8.5 and 5.6 MB
    for model, survey, bound in ((TreeModel.poisson(3.0, 0.3), survey, 10e6),
                                 (TreeModel.regular(3, 0.5), SurveySpec.bsc(0.49), 7e6)):
        monkeypatch.setattr(monte_carlo._ARENA, "block", np.empty(0, np.uint8))
        seen.update(top=0, heap=0)
        wsm_probe(model, survey, 7, 400, workers=1)
        assert seen["top"] < bound and seen["heap"] == 0


@pytest.mark.parametrize("counts", [
    [0, 0, 0], [0, 0, 2, 1], [3, 1, 0, 0], [0, 2, 0, 0, 1, 0], [4], [0], [],
    np.random.default_rng(1).poisson(1.0, 500),
], ids=["all-zero", "zeros-first", "zeros-last", "zeros-between", "one-parent",
        "one-childless-parent", "no-parents", "poisson"])
def test_parent_map_matches_repeat(counts):
    counts = np.asarray(counts, dtype=np.intp)
    want = np.repeat(np.arange(counts.size), counts)
    got = _parent_map(np.cumsum(counts))
    assert got.dtype == np.intp and np.array_equal(got, want)


def test_arena_reuse_keeps_every_result():
    # one process runs estimators whose chunks reuse the arena: several chunks
    # per run, two interleaved upward passes (wsm), a count-statistic boundary,
    # closed regular levels, and reservations that shrink and then grow.
    # Every result must equal the same run with plain heap arrays.
    runs = [
        lambda: estimate_entropy_pair(TreeModel.poisson(3.0, 0.6), SurveySpec.bsc(0.2), 5,
                                      9000, seed=31, workers=1),
        lambda: wsm_probe(TreeModel.regular(2, 0.4), SurveySpec.bsc(0.2), 6, 9000, seed=32,
                          workers=1),
        lambda: estimate_entropy(TreeModel.poisson(3.0, 0.6), SurveySpec.bsc(0.3), 4,
                                 BoundaryCondition.plus(2.0), 5000, seed=33, workers=1),
        lambda: estimate_entropy_pair(TreeModel.regular(4, 0.8), SurveySpec.bec(0.5), 8,
                                      5000, seed=34, workers=1),
    ]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(monte_carlo._ARENA, "empty",
                      lambda n, dtype=np.float64: np.empty(n, dtype))
        heap = [run() for run in runs]
    assert [run() for run in runs + runs[:1]] == heap + heap[:1]


def test_arena_is_per_thread():
    # each thread carves its own block: threads running estimators at once
    # get the results of serial runs
    args = (TreeModel.poisson(3.0, 0.6), SurveySpec.bsc(0.2), 5, 9000)
    serial = [estimate_entropy_pair(*args, seed=seed, workers=1) for seed in range(4)]
    got = [None] * 4

    def run(seed):
        got[seed] = estimate_entropy_pair(*args, seed=seed, workers=1)

    threads = [threading.Thread(target=run, args=(seed,)) for seed in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive()
    assert got == serial


def test_pruned_estimates_invariant_under_worker_count():
    model, survey, depth, n = TreeModel.regular(4, 0.8), SurveySpec.bec(0.5), 8, 12_400
    assert n > 3 * _chunk_trees(model, depth, _reveal_weight(survey))
    one = estimate_entropy_pair(model, survey, depth, n, seed=4, workers=1)
    two = estimate_entropy_pair(model, survey, depth, n, seed=4, workers=2)
    assert one == two
    one = degradation_check(model, survey, depth, n, 5, seed=4, workers=1)
    two = degradation_check(model, survey, depth, n, 5, seed=4, workers=2)
    assert one == two


def test_poisson_estimates_invariant_under_worker_count():
    # the erasure survey prunes, so chunk plans, pruning and count tables meet
    model, survey, depth, n = TreeModel.poisson(3.0, 0.3), SurveySpec.bec(0.5), 4, 12_300
    assert n > 2 * _chunk_trees(model, depth, _reveal_weight(survey))
    assert n > 2 * _chunk_trees(model, depth)
    runs = [(estimate_entropy_pair(model, survey, depth, n, seed=5, workers=w),
             degradation_check(model, survey, depth, n, 5, seed=5, workers=w),
             wsm_probe(model, survey, depth, n, seed=5, workers=w)) for w in (1, 2)]
    assert runs[1][2].regime == "contraction"
    for one, two in zip(*runs):
        assert one == two


def test_estimate_entropy_pair_ordering_and_reproducibility():
    pair = estimate_entropy_pair(TreeModel.regular(3, 0.7), SurveySpec.bec(0.6), 4,
                                 20000, seed=3)
    # extra conditioning cannot raise entropy beyond pairing noise
    assert pair.diff.estimate >= -3.0 * pair.diff.stderr
    assert pair.leaves.estimate <= pair.no_leaves.estimate + 3.0 * pair.diff.stderr

    again = estimate_entropy_pair(TreeModel.regular(3, 0.7), SurveySpec.bec(0.6), 4,
                                  20000, seed=3)
    assert again.leaves.estimate == pair.leaves.estimate
    assert again.no_leaves.estimate == pair.no_leaves.estimate


def test_estimates_invariant_under_worker_count():
    base = estimate_entropy_pair(TreeModel.regular(3, 0.7), SurveySpec.bec(0.6), 4,
                                 20000, seed=3, workers=1)
    multi = estimate_entropy_pair(TreeModel.regular(3, 0.7), SurveySpec.bec(0.6), 4,
                                  20000, seed=3, workers=3)
    assert base.leaves.estimate == multi.leaves.estimate
    assert base.no_leaves.estimate == multi.no_leaves.estimate
    assert base.diff.stderr == multi.diff.stderr


def test_estimate_entropy_poisson_childless_chunk():
    # no tree has a child: the root's child sum is an empty bincount
    result = estimate_entropy(TreeModel.poisson(0.01, 0.6), SurveySpec.bsc(0.2), 2,
                              BoundaryCondition.none(), 3, include_root_survey=False)
    assert result.estimate == math.log(2.0) and result.stderr == 0.0


def test_estimate_entropy_poisson_runs():
    result = estimate_entropy(TreeModel.poisson(2.0, 0.6), SurveySpec.bec(0.5), 3,
                              BoundaryCondition.none(), 5000, seed=4)
    assert 0.0 <= result.estimate <= math.log(2.0) + 1e-12


def test_degradation_theta_zero_equality():
    # leaves carry nothing, so both coupled deltas coincide sample-wise
    report = degradation_check(TreeModel.regular(3, 0.0), SurveySpec.bec(0.5), 3,
                               20000, 10, seed=6)
    assert report.ok
    for b in report.bins:
        assert b.mean_delta == pytest.approx(b.delta_tilde_center, abs=1e-12)


def test_degradation_depth_zero_strict():
    report = degradation_check(TreeModel.regular(3, 0.7), SurveySpec.bec(0.5), 0,
                               1000, 5, seed=6, include_root_survey=False)
    assert report.ok
    assert all(b.mean_delta <= 1e-12 for b in report.bins)
    assert all(b.delta_tilde_center == pytest.approx(0.5) for b in report.bins)


def test_degradation_moderate_case_unflagged():
    report = degradation_check(TreeModel.regular(3, 0.7), SurveySpec.bec(0.6), 4,
                               30000, 15, seed=5)
    assert report.n_flagged == 0
    assert sum(b.n for b in report.bins) == 30000
    with pytest.raises(ValueError):
        degradation_check(TreeModel.regular(3, 0.7), SurveySpec.bec(0.6), 4, 100, 0)


def test_majority_closed_form_mean_example():
    mean, _ = majority_closed_forms(TreeModel.regular(2, 0.6), 0.1, 3)
    assert mean == pytest.approx((1.0 - 0.2) * 1.2 ** 3, abs=1e-12)
    assert mean == pytest.approx(1.3824, abs=1e-12)


def test_majority_closed_form_poisson_variance_example():
    _, var = majority_closed_forms(TreeModel.poisson(4.0, 0.7), 0.1, 2)
    # 4 eta (1-eta) d^k + (1-2 eta)^2 d^k ((d theta^2)^k - 1)/(d theta^2 - 1)
    growth = (1.96 ** 2 - 1.0) / 0.96
    assert var == pytest.approx(0.36 * 16.0 + 0.64 * 16.0 * growth, abs=1e-10)
    assert var == pytest.approx(36.0704, abs=1e-10)


def test_majority_closed_form_depth_one_enumeration():
    # depth 1, d independent children: mean and variance from first principles
    d, theta, eta = 3, 0.55, 0.2
    m1 = (1.0 - 2.0 * eta) * theta
    mean, var = majority_closed_forms(TreeModel.regular(d, theta), eta, 1)
    assert mean == pytest.approx(d * m1, abs=1e-12)
    assert var == pytest.approx(d * (1.0 - m1 * m1), abs=1e-12)


def test_majority_stats_matches_closed_forms():
    report = majority_stats(TreeModel.regular(3, 0.6), 0.15, 5, 40000, seed=2)
    assert abs(report.sample_mean - report.closed_form_mean) <= 4.0 * report.sample_mean_stderr
    assert abs(report.sample_var - report.closed_form_var) <= 4.0 * report.sample_var_stderr
    assert report.chi2_lower_bound == pytest.approx(1.0 / (report.ratio + 1.0), abs=1e-12)


def test_majority_stats_poisson_and_validation():
    report = majority_stats(TreeModel.poisson(3.0, 0.8), 0.1, 5, 30000, seed=8)
    assert abs(report.sample_mean - report.closed_form_mean) <= 4.0 * report.sample_mean_stderr
    assert report.ratio_limit == pytest.approx(1.0 / (3.0 * 0.64 - 1.0), abs=1e-12)
    model = TreeModel.regular(3, 0.6)
    with pytest.raises(ValueError):
        majority_stats(model, 0.0, 5, 1000)
    with pytest.raises(ValueError):
        majority_stats(model, 0.6, 5, 1000)
    with pytest.raises(ValueError):
        majority_stats(model, 0.1, 0, 1000)


@pytest.mark.parametrize("model", [TreeModel.regular(4, 0.7), TreeModel.poisson(4.0, 0.7)],
                         ids=["regular", "poisson"])
def test_majority_stats_rejects_depths_past_int64_counts(model):
    # 4^31 = 2^62 level counts still fit in int64; one level more does not
    report = majority_stats(model, 0.1, 31, 100, seed=1)
    assert math.isfinite(report.sample_mean) and math.isfinite(report.sample_var)
    for depth in (32, 600):
        with pytest.raises(ValueError, match=f"^depth {depth} .*2\\^62"):
            majority_stats(model, 0.1, depth, 100, seed=1)


def test_majority_stats_worker_invariance():
    one = majority_stats(TreeModel.regular(3, 0.6), 0.15, 4, 50000, seed=2, workers=1)
    two = majority_stats(TreeModel.regular(3, 0.6), 0.15, 4, 50000, seed=2, workers=4)
    assert one.sample_mean == two.sample_mean
    assert one.sample_var == two.sample_var


def test_wsm_contraction_rate_bound():
    report = wsm_probe(TreeModel.regular(2, 0.4), SurveySpec.trivial(), 8, 16, seed=1)
    assert report.regime == "contraction"
    assert report.rate_bound == pytest.approx(0.8)
    assert report.measured_rate <= 0.8 * 1.05
    # mean gap shrinks toward the root
    gaps = report.level_gaps
    assert all(gaps[j] <= gaps[j + 1] + 1e-12 for j in range(len(gaps) - 1))


def test_wsm_equal_gaps_have_zero_stderr():
    # trivial survey: every node of a level carries the same gap, so each
    # level's spread is rounding residue; s2/n - mean^2 read 3.3e-10 here
    report = wsm_probe(TreeModel.regular(2, 0.4), SurveySpec.trivial(), 12, 64, seed=1)
    assert all(se <= 1e-15 for se in report.level_gap_stderrs)
    again = wsm_probe(TreeModel.regular(2, 0.4), SurveySpec.trivial(), 12, 64, seed=1,
                      workers=2)
    assert again == report


def test_wsm_theta_zero_gap_collapses():
    report = wsm_probe(TreeModel.regular(2, 0.0), SurveySpec.bsc(0.3), 4, 8, seed=1)
    assert report.level_gaps[0] == 0.0
    assert all(g == 0.0 for g in report.level_gaps[:-1])


def test_wsm_separation_found_and_persists():
    report = wsm_probe(TreeModel.regular(3, 0.5), SurveySpec.bsc(0.49), 6, 64, seed=2)
    assert report.regime == "separation"
    assert report.status == "ok"
    assert report.x_found is not None and report.x_found > 0.0
    assert report.min_llr > report.x_found
    assert report.persists


def test_wsm_separation_invariant_under_worker_count():
    model, survey, depth = TreeModel.regular(3, 0.5), SurveySpec.bsc(0.49), 5
    n = 2 * _chunk_trees(model, depth) + 100          # three chunks
    one, two = (wsm_probe(model, survey, depth, n, seed=7, workers=w) for w in (1, 2))
    assert one.regime == "separation" and one.status == "ok"
    assert one == two


def test_wsm_contraction_invariant_under_worker_count():
    # three chunks, of 4,096, 4,096 and 2,048 trees, whose deepest levels
    # span several draw blocks each
    model, survey, depth = TreeModel.poisson(2.0, 0.4), SurveySpec.bsc(0.2), 7
    chunk = _chunk_trees(model, depth)
    assert chunk // 2 * 2 ** (depth - 1) > monte_carlo._DRAW_BLOCK       # expected rows
    n = 2 * chunk + chunk // 2
    one, two = (wsm_probe(model, survey, depth, n, seed=8, workers=w) for w in (1, 2))
    assert one.regime == "contraction"
    assert one == two


def test_wsm_validation():
    with pytest.raises(ValueError):
        wsm_probe(TreeModel.poisson(3.0, 0.5), SurveySpec.bsc(0.49), 4, 16)
    with pytest.raises(ValueError):
        wsm_probe(TreeModel.regular(3, 0.5), SurveySpec.bec(0.5), 4, 16)
    with pytest.raises(ValueError):
        wsm_probe(TreeModel.regular(2, 0.4), SurveySpec.trivial(), 0, 16)
    with pytest.raises(ValueError):
        wsm_probe(TreeModel.regular(2, 0.4), SurveySpec.trivial(), 4, 16,
                  boundary_magnitude=0.0)


@pytest.mark.parametrize("estimator", [
    lambda m, s: estimate_entropy(m, s, 2, BoundaryCondition.none(), 1),
    lambda m, s: estimate_entropy_pair(m, s, 2, 1),
    lambda m, s: degradation_check(m, s, 2, 1, 2),
    lambda m, s: wsm_probe(m, s, 2, 1),
], ids=["entropy", "entropy_pair", "degradation", "wsm"])
def test_estimators_need_two_samples(estimator):
    with pytest.raises(ValueError, match="two samples"):
        estimator(TreeModel.regular(2, 0.4), SurveySpec.bec(0.5))


def test_result_dictionaries():
    result = estimate_entropy(TreeModel.regular(2, 0.5), SurveySpec.bec(0.5), 2,
                              BoundaryCondition.none(), 500, seed=1)
    assert set(asdict(result)) == {"estimate", "stderr", "n_samples", "seed"}
    report = degradation_check(TreeModel.regular(2, 0.5), SurveySpec.bec(0.5), 2, 500, 4)
    doc = asdict(report)
    assert {"bins", "n_flagged", "n_skipped", "ok"} <= set(doc)
