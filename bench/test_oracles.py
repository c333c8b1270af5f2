"""Tests of the benchmark's oracles: each check passes on hand-worked values
and rejects a perturbed output.

    python3 -m pytest bench/test_oracles.py
"""

import math

import numpy as np
import pytest

import oracles


# -- public goods -----------------------------------------------------------


@pytest.mark.parametrize(
    "n, n_c, k, expected",
    [
        (4, 0, 2.0, 1.0),  # everyone keeps the endowment
        (4, 2, 2.0, 1.5),  # round total 2*2 + 2 = 6 over 4 players
        (4, 4, 3.0, 3.0),  # full cooperation returns k
        (16, 5, 3.0, 1.625),  # 1 + 2 * 5 / 16
        (256, 255, 3.0, 1.0 + 2.0 * 255 / 256),
    ],
)
def test_pgg_closed_form(n, n_c, k, expected):
    assert oracles.pgg_mean_welfare(n, n_c, k) == expected
    assert oracles.check_pgg_cell(n, n_c, k, expected) is None


def test_pgg_check_rejects_perturbed_welfare():
    assert oracles.check_pgg_cell(4, 2, 2.0, 1.5 * (1 + 1e-9)) is not None
    assert oracles.check_pgg_cell(4, 2, 2.0, 1.25) is not None  # n_c off by one
    assert oracles.check_pgg_cell(16, 5, 3.0, 1.0 + 1.0 * 5 / 16) is not None  # k - 1 wrong


# -- common pool ------------------------------------------------------------


@pytest.mark.parametrize(
    "n, n_c, rounds, capacity, expected",
    [
        # stock 8, each cooperator takes 8/4 = 2: total 4 over 2 players
        (2, 2, 1, 8.0, 2.0),
        # two defectors take 4 each and leave nothing; round 2 pays 0
        (2, 0, 2, 8.0, 8.0 / 4),
        # round 1 pays 2 + 4 and leaves 2, which grows to 2 + 2*2*(1 - 2/8) = 5;
        # round 2 pays 1.25 + 2.5; mean (6 + 3.75) / 4
        (2, 1, 2, 8.0, 2.4375),
        # full cooperation holds the stock at capacity: 2 per player and round
        (4, 4, 20, 16.0, 2.0),
    ],
)
def test_cpr_recursion(n, n_c, rounds, capacity, expected):
    assert oracles.cpr_mean_welfare(n, n_c, rounds, capacity) == pytest.approx(expected, abs=1e-15)
    assert oracles.check_cpr_cell(n, n_c, rounds, capacity, expected) is None


def test_cpr_check_tolerance_and_rejection():
    assert oracles.check_cpr_cell(2, 1, 2, 8.0, 2.4375 * (1 + 1e-11)) is None
    assert oracles.check_cpr_cell(2, 1, 2, 8.0, 2.4375 * (1 + 1e-8)) is not None
    # no regrowth cap, or one round fewer, gives a different welfare
    assert oracles.check_cpr_cell(2, 1, 2, 8.0, (6 + 3.75) / 4 + 0.01) is not None
    assert oracles.check_cpr_cell(2, 1, 1, 8.0, 2.4375) is not None


# -- fingerprints -----------------------------------------------------------

TWO_PLAYER_NODES = [(), (0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)]


def test_decision_nodes():
    assert oracles.decision_nodes(2, 3) == TWO_PLAYER_NODES
    nodes = oracles.decision_nodes(4, 5)
    assert len(nodes) == 1 + 4 + 16 + 64 + 256 == 341
    assert nodes[:6] == [(), (0,), (1,), (2,), (3,), (0, 0)]


@pytest.mark.parametrize(
    "name, t, expected",
    [
        ("allc", 0, [1, 1, 1, 1, 1, 1, 1]),
        ("alld", 0, [0, 0, 0, 0, 0, 0, 0]),
        ("rnd0", 0, [0, 0, 0, 0, 0, 0, 0]),
        ("rnd1", 0, [1, 1, 1, 1, 1, 1, 1]),
        # cooperate first, then iff the last count reached t
        ("cc", 1, [1, 0, 1, 0, 1, 0, 1]),
        ("cc", 0, [1, 1, 1, 1, 1, 1, 1]),
        # defect first, then defect iff the last count reached t
        ("cd", 1, [0, 1, 0, 1, 0, 1, 0]),
        ("cd", 0, [0, 0, 0, 0, 0, 0, 0]),
    ],
)
def test_reference_rows(name, t, expected):
    row = oracles.reference_row(name, TWO_PLAYER_NODES, t)
    assert row.tolist() == expected
    assert oracles.check_exact_row(np.array(expected, dtype=float), row) is None


def test_reference_row_check_rejects_one_flipped_node():
    expected = oracles.reference_row("cc", TWO_PLAYER_NODES, 1)
    flipped = expected.copy()
    flipped[4] = 1.0 - flipped[4]
    assert oracles.check_exact_row(flipped, expected) is not None
    assert oracles.check_exact_row(expected[:-1], expected) is not None
    with pytest.raises(ValueError):
        oracles.reference_row("grim", TWO_PLAYER_NODES)


def test_rollout_grid():
    assert oracles.check_rollout_grid(np.array([0.0, 0.5, 0.98, 1.0]), 50) is None
    assert oracles.check_rollout_grid(np.array([0.51]), 50) is not None
    assert oracles.check_rollout_grid(np.array([1.02]), 50) is not None
    assert oracles.check_rollout_grid(np.array([-0.02]), 50) is not None


def test_binomial_band_on_hand_values():
    # Binomial(4, 1/2) has mass 1, 4, 6, 4, 1 over 16: 1/16 below 1 and
    # 5/16 below 2, so with a tail of 0.07 the band is [1/4, 3/4]
    assert oracles.binomial_band(0.5, 4, tail=0.07) == (0.25, 0.75)
    assert oracles.binomial_band(0.5, 4, tail=0.05) == (0.0, 1.0)


@pytest.mark.parametrize("p", [0.02, 0.25, 0.5, 0.75, 0.97])
def test_binomial_band_accepts_binomial_rows(p):
    rng = np.random.default_rng(7)
    for _ in range(50):
        row = rng.binomial(50, p, size=341) / 50
        assert oracles.check_binomial_row(row, p, 50) is None


def test_binomial_band_rejects_outliers_and_bias():
    p, rollouts = 0.5, 50
    row = np.full(341, p)
    assert oracles.check_binomial_row(row, p, rollouts) is None
    # 4% of the nodes far outside the band
    outliers = row.copy()
    outliers[:14] = 1.0
    assert oracles.check_binomial_row(outliers, p, rollouts) is not None
    # every node inside the band, but the row as a whole biased by 0.04
    biased = np.full(341, p + 0.04)
    lo, hi = oracles.binomial_band(p, rollouts)
    assert lo < p + 0.04 < hi
    assert oracles.check_binomial_row(biased, p, rollouts) is not None
    # the wrong p altogether
    assert oracles.check_binomial_row(np.full(341, 0.25), p, rollouts) is not None
    # p = 0 or 1 is exact
    assert oracles.check_binomial_row(np.zeros(341), 0.0, rollouts) is None
    assert oracles.check_binomial_row(np.full(341, 0.02), 0.0, rollouts) is not None


# -- PCA and metrics --------------------------------------------------------

# scatter matrix [[5,0,1],[0,1,-2],[1,-2,5]] with characteristic polynomial
# l^3 - 11 l^2 + 30 l - 4; the covariance eigenvalues are its roots / 3
PCA_DATA = np.array([[2, 0, 1], [0, 1, -1], [3, 1, 0], [1, 0, 2]], dtype=float)


def _hand_pca():
    roots = np.sort(np.roots([1.0, -11.0, 30.0, -4.0]))[::-1] / 3.0
    cov = np.cov(PCA_DATA, rowvar=False)
    components = np.array([np.linalg.svd(cov - lam * np.eye(3))[2][-1] for lam in roots])
    return roots, components


def test_pca_check_accepts_hand_decomposition():
    eigenvalues, components = _hand_pca()
    assert sum(eigenvalues) == pytest.approx(11 / 3)
    assert oracles.check_pca(PCA_DATA, eigenvalues, components) is None


def test_pca_check_rejects_perturbations():
    eigenvalues, components = _hand_pca()
    assert oracles.check_pca(PCA_DATA, eigenvalues[::-1], components) is not None
    assert oracles.check_pca(PCA_DATA, eigenvalues * 1.001, components) is not None
    negative = eigenvalues.copy()
    negative[-1] = -1e-3
    assert oracles.check_pca(PCA_DATA, negative, components) is not None
    skewed = components.copy()
    skewed[0] *= 1.01
    assert oracles.check_pca(PCA_DATA, eigenvalues, skewed) is not None


def test_metric_oracles_on_hand_values():
    # centroids (1,1) and (5,2), within-set variances 8/3: sqrt(17 / (8/3))
    set_a = np.array([[0, 0], [2, 0], [1, 3]], dtype=float)
    set_b = np.array([[4, 1], [6, 1], [5, 4]], dtype=float)
    assert oracles.cohens_d(set_a, set_b) == pytest.approx(math.sqrt(51 / 8), abs=1e-12)
    # one pair at distance 5 in d = 2, normalised by sqrt(2 / 6)
    pair = np.array([[0, 0], [3, 4]], dtype=float)
    assert oracles.mean_pairwise_distance(pair) == pytest.approx(5 * math.sqrt(3), abs=1e-12)
    # isotropic cross: equal eigenvalues in d = 2; a line: one eigenvalue
    cross = np.array([[1, 0], [-1, 0], [0, 1], [0, -1]], dtype=float)
    assert oracles.participation_ratio(cross) == pytest.approx(2.0, abs=1e-12)
    line = np.array([[0, 0], [1, 1], [2, 2]], dtype=float)
    assert oracles.participation_ratio(line) == pytest.approx(1.0, abs=1e-12)


def test_metric_check_rejects_perturbation():
    value = math.sqrt(51 / 8)
    assert oracles.check_metric("cohens_d", value * (1 + 1e-12), value) is None
    assert oracles.check_metric("cohens_d", value * (1 + 1e-6), value) is not None
