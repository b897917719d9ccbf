"""Sampled-tree estimators: single-tree BP, entropy, coupling, majority, mixing."""

import math
from itertools import product
from math import comb

import numpy as np
import pytest

from treebp.bms import DeltaDistribution, SurveySpec, binary_entropy
from treebp.density_evolution import TreeModel
from treebp.llr_dist import edge_llr_map
from treebp.monte_carlo import (
    _GUIDE_SIZE,
    LLR_MAX,
    BoundaryCondition,
    _chunk_trees,
    _CountTable,
    _nodes_per_tree,
    _reveal_weight,
    _sample_chunk_levels,
    _SurveySampler,
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
    if kind == "poisson":
        table = _CountTable.poisson(lam)
        exact = dict(enumerate(_poisson_probs(lam, n)))
        mean = lam
    else:
        table = _CountTable.skellam(lam, flip)
        exact = _skellam_probs(lam, flip, n)
        mean = lam * theta
    cdf = table.cdf
    values = table.first + np.arange(cdf.size)
    assert cdf[-1] == 1.0
    assert np.all(np.diff(cdf) >= 0.0)
    dropped = sum(p for k, p in exact.items() if not values[0] <= k <= values[-1])
    assert dropped <= 1e-15
    probs = np.diff(cdf, prepend=0.0)
    got_mean = float(np.dot(values, probs))
    got_var = float(np.dot((values - mean) ** 2, probs)) - (got_mean - mean) ** 2
    assert got_mean == pytest.approx(mean, rel=1e-12)
    assert got_var == pytest.approx(lam, rel=1e-12)


class _FixedUniforms:
    """Stands in for a Generator whose random(n) returns chosen uniforms."""

    def __init__(self, u: np.ndarray):
        self.u = u

    def random(self, n: int) -> np.ndarray:
        assert n == self.u.size
        return self.u.copy()


def _edge_uniforms(cdf: np.ndarray) -> np.ndarray:
    """Every guide bin edge k/G and every CDF entry, each with its two
    neighbouring doubles, plus 0 and the largest double below 1."""
    points = np.concatenate([np.arange(_GUIDE_SIZE + 1) / _GUIDE_SIZE, cdf])
    u = np.concatenate([points, np.nextafter(points, 0.0), np.nextafter(points, 1.0),
                        [0.0, np.nextafter(1.0, 0.0)]])
    return np.unique(u[(u >= 0.0) & (u < 1.0)])


@pytest.mark.parametrize("table", [
    *(_CountTable.poisson(lam) for lam in (0.01, 4.0, 50.0, 800.0)),
    _CountTable.skellam(4.0, 0.1), _CountTable.skellam(50.0, 0.3),
], ids=["poisson0.01", "poisson4", "poisson50", "poisson800", "skellam4", "skellam50"])
def test_guide_lookup_equals_binary_search(table):
    u = _edge_uniforms(table.cdf)
    u = np.concatenate([u, np.random.default_rng(1).random(20_000)])
    values = table.first + np.arange(table.cdf.size)
    want = values[np.searchsorted(table.cdf, u, side="right")]
    assert np.array_equal(table.draw(_FixedUniforms(u), u.size), want)
    # the guide settles most bins without a search: 0.34% of Poisson(4) draws search
    assert table.split.mean() <= 0.05


@pytest.mark.parametrize("atoms", [
    [(0.3, 0.5), (0.1, 0.3), (0.0, 0.2)],
    [(0.4, 0.25), (0.2, 0.25), (0.05, 0.3), (0.01, 0.2)],
    [(0.5 * (k + 0.5) / 40, 1.0 / 40) for k in range(40)],
], ids=["three", "four", "forty"])
def test_survey_atom_lookup_equals_binary_search(atoms):
    survey = SurveySpec.from_delta(DeltaDistribution(atoms))
    sampler = _SurveySampler(survey)
    assert sampler.n_atoms == len(atoms)
    u = np.concatenate([_edge_uniforms(sampler.cum), _edge_uniforms(sampler.flip_cut)])
    spins = np.where(np.arange(u.size) % 3 == 0, -1, 1).astype(np.int8)
    w, revealed = sampler.draw(_FixedUniforms(u), spins)
    idx = np.searchsorted(sampler.cum, u, side="right")
    sign = 1.0 - 2.0 * (u < sampler.flip_cut[idx])
    assert np.array_equal(w, spins * (sampler.mags[idx] * sign))
    assert np.array_equal(np.signbit(w), np.signbit(spins * (sampler.mags[idx] * sign)))
    if sampler.reveal_cut is None:
        assert revealed is None
    else:
        assert np.array_equal(revealed, idx == len(atoms) - 1)


_THREE_ATOMS = SurveySpec.from_delta(DeltaDistribution([(0.3, 0.5), (0.1, 0.3), (0.0, 0.2)]))


# Exact outputs of small runs, recorded before the guide-table sampler landed
# and unchanged by it; any sampler edit that moves one bit fails here.
@pytest.mark.parametrize("run, expected", [
    (lambda: estimate_entropy_pair(TreeModel.poisson(4.0, 0.8), SurveySpec.bsc(0.2), 5, 3000,
                                   seed=21),
     {"leaves": {"estimate": 0.0980509619327449, "stderr": 0.0032160082571132025,
                 "n_samples": 3000, "seed": 21},
      "no_leaves": {"estimate": 0.10067168796857018, "stderr": 0.003245698559511909,
                    "n_samples": 3000, "seed": 21},
      "diff": {"estimate": 0.0026207260358252684, "stderr": 0.0007049726454896927,
               "n_samples": 3000, "seed": 21}}),
    (lambda: estimate_entropy_pair(TreeModel.regular(4, 0.8), SurveySpec.bec(0.5), 6, 5000,
                                   seed=22),
     {"leaves": {"estimate": 0.030503270200010837, "stderr": 0.0015678910891046812,
                 "n_samples": 5000, "seed": 22},
      "no_leaves": {"estimate": 0.03053496077361611, "stderr": 0.0015692227621248401,
                    "n_samples": 5000, "seed": 22},
      "diff": {"estimate": 3.1690573605272875e-05, "stderr": 6.136738978079017e-05,
               "n_samples": 5000, "seed": 22}}),
    (lambda: estimate_entropy_pair(TreeModel.poisson(3.0, 0.7), SurveySpec.bec(0.4), 5, 3000,
                                   seed=23, include_root_survey=False),
     {"leaves": {"estimate": 0.2800436462349445, "stderr": 0.004481804488883224,
                 "n_samples": 3000, "seed": 23},
      "no_leaves": {"estimate": 0.2804229607541685, "stderr": 0.004488981370035183,
                    "n_samples": 3000, "seed": 23},
      "diff": {"estimate": 0.0003793145192239798, "stderr": 0.00026417998766029287,
               "n_samples": 3000, "seed": 23}}),
    (lambda: estimate_entropy_pair(TreeModel.poisson(3.0, 0.7), _THREE_ATOMS, 4, 2000, seed=27),
     {"leaves": {"estimate": 0.1862209433367867, "stderr": 0.005049502827675201,
                 "n_samples": 2000, "seed": 27},
      "no_leaves": {"estimate": 0.19288193715155408, "stderr": 0.005095086802067143,
                    "n_samples": 2000, "seed": 27},
      "diff": {"estimate": 0.006660993814767364, "stderr": 0.0011047779538622333,
               "n_samples": 2000, "seed": 27}}),
    (lambda: estimate_entropy(TreeModel.poisson(3.0, 0.6), SurveySpec.bsc(0.3), 4,
                              BoundaryCondition.plus(), 2000, seed=24),
     {"estimate": 0.26648133191756124, "stderr": 0.005094552241986376,
      "n_samples": 2000, "seed": 24}),
    (lambda: degradation_check(TreeModel.poisson(3.0, 0.7), SurveySpec.bec(0.5), 4, 3000, 5,
                               seed=25),
     {"bins": [{"delta_tilde_center": 0.0003254127975712923,
                "mean_delta": 0.00031543189324588646, "stderr": 2.544579000806121e-05,
                "n": 1798, "flagged": False},
               {"delta_tilde_center": 0.04024989678103343, "mean_delta": 0.039223342611121606,
                "stderr": 0.0015438399499805107, "n": 596, "flagged": False},
               {"delta_tilde_center": 0.2933593082714967, "mean_delta": 0.2887455153692038,
                "stderr": 0.005927850518049182, "n": 606, "flagged": False}],
      "n_flagged": 0, "n_skipped": 0, "n_samples": 3000, "seed": 25, "ok": True}),
    (lambda: wsm_probe(TreeModel.poisson(2.0, 0.4), SurveySpec.bsc(0.2), 5, 2000, seed=26),
     {"regime": "contraction", "dtheta": 0.8, "depth": 5, "n_samples": 2000, "seed": 26,
      "boundary_magnitude": 30.0,
      "level_gaps": [0.18108619745393856, 0.37547809908832924, 0.7951944486823929,
                     1.6052339527725223, 3.387754215712986, 60.0],
      "level_gap_stderrs": [0.004261721980487577, 0.0058964182503398865,
                            0.008197672342124226, 0.010507257825476974,
                            0.013399838594952267, 0.0],
      "measured_rate": 0.4953760461576032, "rate_bound": 0.8, "x_found": None,
      "margin": None, "min_llr_by_level": None, "min_llr": None, "persists": None,
      "status": "ok"}),
], ids=["pair_poisson_bsc", "pair_regular_bec", "pair_poisson_bec_noroot",
        "pair_poisson_three_atoms", "plus_poisson", "degradation", "wsm_contraction"])
def test_outputs_pinned_to_recorded_floats(run, expected):
    assert run().as_dict() == expected


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
    levels = _sample_chunk_levels(np.random.default_rng(0), model, SurveySpec.bsc(1e-15),
                                  depth, n_trees, True, True, True, prune=True)
    assert levels.sizes == [n_trees * 3 ** j for j in range(depth)]
    assert all(rows is None for rows in levels.open_rows)
    assert levels.n_leaves() == n_trees * 3 ** depth
    assert np.all(np.abs(levels.surveys[1]) == LLR_MAX)

    erasure = _sample_chunk_levels(np.random.default_rng(0), model, SurveySpec.bec(0.5),
                                   depth, n_trees, True, True, True, prune=True)
    assert erasure.sizes[0] == n_trees
    assert all(erasure.sizes[j + 1] == 3 * erasure.n_open(j) for j in range(depth - 1))
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
    # the budget tracks the nodes a chunk actually draws, leaves included
    for tree in (model, TreeModel.poisson(4.0, 0.8)):
        for root in (True, False):
            levels = _sample_chunk_levels(np.random.default_rng(0), tree, SurveySpec.bec(0.5),
                                          6, 4000, False, True, root, prune=True)
            drawn = (sum(levels.sizes) + levels.n_leaves()) / 4000
            assert drawn == pytest.approx(_nodes_per_tree(tree, 6, 0.5, root), rel=0.05)


def test_pruned_estimates_invariant_under_worker_count():
    model, survey, depth, n = TreeModel.regular(4, 0.8), SurveySpec.bec(0.5), 8, 12_400
    assert n > 3 * _chunk_trees(model, depth, _reveal_weight(survey))
    one = estimate_entropy_pair(model, survey, depth, n, seed=4, workers=1)
    two = estimate_entropy_pair(model, survey, depth, n, seed=4, workers=2)
    assert one.as_dict() == two.as_dict()
    one = degradation_check(model, survey, depth, n, 5, seed=4, workers=1)
    two = degradation_check(model, survey, depth, n, 5, seed=4, workers=2)
    assert one.as_dict() == two.as_dict()


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
        assert one.as_dict() == two.as_dict()


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
    mean, _ = majority_closed_forms(2, 0.6, 0.1, 3, "regular")
    assert mean == pytest.approx((1.0 - 0.2) * 1.2 ** 3, abs=1e-12)
    assert mean == pytest.approx(1.3824, abs=1e-12)


def test_majority_closed_form_poisson_variance_example():
    _, var = majority_closed_forms(4.0, 0.7, 0.1, 2, "poisson")
    # 4 eta (1-eta) d^k + (1-2 eta)^2 d^k ((d theta^2)^k - 1)/(d theta^2 - 1)
    growth = (1.96 ** 2 - 1.0) / 0.96
    assert var == pytest.approx(0.36 * 16.0 + 0.64 * 16.0 * growth, abs=1e-10)
    assert var == pytest.approx(36.0704, abs=1e-10)


def test_majority_closed_form_depth_one_enumeration():
    # depth 1, d independent children: mean and variance from first principles
    d, theta, eta = 3, 0.55, 0.2
    m1 = (1.0 - 2.0 * eta) * theta
    mean, var = majority_closed_forms(d, theta, eta, 1, "regular")
    assert mean == pytest.approx(d * m1, abs=1e-12)
    assert var == pytest.approx(d * (1.0 - m1 * m1), abs=1e-12)


def test_majority_stats_matches_closed_forms():
    report = majority_stats(3, 0.6, 0.15, 5, 40000, "regular", seed=2)
    assert abs(report.sample_mean - report.closed_form_mean) <= 4.0 * report.sample_mean_stderr
    assert abs(report.sample_var - report.closed_form_var) <= 4.0 * report.sample_var_stderr
    assert report.chi2_lower_bound == pytest.approx(1.0 / (report.ratio + 1.0), abs=1e-12)


def test_majority_stats_poisson_and_validation():
    report = majority_stats(3.0, 0.8, 0.1, 5, 30000, "poisson", seed=8)
    assert abs(report.sample_mean - report.closed_form_mean) <= 4.0 * report.sample_mean_stderr
    assert report.ratio_limit == pytest.approx(1.0 / (3.0 * 0.64 - 1.0), abs=1e-12)
    with pytest.raises(ValueError):
        majority_stats(3, 0.6, 0.0, 5, 1000)
    with pytest.raises(ValueError):
        majority_stats(3, 0.6, 0.6, 5, 1000)
    with pytest.raises(ValueError):
        majority_stats(3.5, 0.6, 0.1, 5, 1000, "regular")
    with pytest.raises(ValueError):
        majority_stats(3, 0.6, 0.1, 0, 1000)


def test_majority_stats_worker_invariance():
    one = majority_stats(3, 0.6, 0.15, 4, 50000, "regular", seed=2, workers=1)
    two = majority_stats(3, 0.6, 0.15, 4, 50000, "regular", seed=2, workers=4)
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
    assert again.as_dict() == report.as_dict()


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
    assert set(result.as_dict()) == {"estimate", "stderr", "n_samples", "seed"}
    report = degradation_check(TreeModel.regular(2, 0.5), SurveySpec.bec(0.5), 2, 500, 4)
    doc = report.as_dict()
    assert {"bins", "n_flagged", "n_skipped", "ok"} <= set(doc)
