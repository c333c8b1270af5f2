"""Fingerprints, PCA, and the three variation metrics."""

import csv
import hashlib
import importlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import fingerprint_node, twin_pool, without_kernel

from ndilemma import (
    Action,
    Attitude,
    GameKind,
    GameParams,
    PcaResult,
    StrategyFault,
    cohens_d,
    enumerate_nodes,
    fingerprint,
    fingerprint_many,
    make_reference,
    mpd,
    participation_ratio,
    pca,
)
from ndilemma import engine
from ndilemma.engine import MemberTable
from ndilemma.fingerprint import write_fingerprint_csv, write_pca_json, write_projections_csv
from ndilemma.kernels import FAMILIES, KernelFamily, SlotFault, kernel_strategy
from ndilemma.policy import Predicate, PolicyRule, PolicySpec, policy_strategy
from ndilemma.seeding import derive_seed, rng_for
from ndilemma.strategies import Strategy

# the package exports the function under the module's name
fingerprint_module = importlib.import_module("ndilemma.fingerprint")

KIND = GameKind.PUBLIC_GOODS
PARAMS = GameParams(n=4, rounds=5, k=2.0)
NODES = enumerate_nodes(4, 5)


class TestEnumerateNodes:
    def test_single_round_has_one_node(self):
        nodes = enumerate_nodes(4, 1)
        assert len(nodes) == 1
        assert nodes[0].counts == ()

    def test_depth_one_matches_trajectory_list(self):
        # the four second-round opponent trajectories for 4 players:
        # DDD, DDC, DCC, CCC as cooperator counts 0..3
        depth_one = [n for n in NODES if n.depth == 1]
        assert [n.counts for n in depth_one] == [(0,), (1,), (2,), (3,)]

    def test_total_count_is_geometric_sum(self):
        assert len(NODES) == sum(4**t for t in range(5)) == 341
        assert len(enumerate_nodes(3, 4)) == sum(3**t for t in range(4))

    def test_breadth_first_lexicographic(self):
        depths = [n.depth for n in NODES]
        assert depths == sorted(depths)
        depth_two = [n.counts for n in NODES if n.depth == 2]
        assert depth_two == sorted(depth_two)
        assert depth_two[0] == (0, 0) and depth_two[-1] == (3, 3)


class TestFingerprint:
    def test_allc_all_ones(self):
        values = fingerprint(make_reference("allc"), KIND, PARAMS, NODES, 50, seed=0)
        assert (values == 1.0).all()

    def test_alld_all_zeros(self):
        values = fingerprint(make_reference("alld"), KIND, PARAMS, NODES, 50, seed=0)
        assert (values == 0.0).all()

    def test_rnd_within_binomial_band(self):
        values = fingerprint(make_reference("rnd", p=0.3), KIND, PARAMS, NODES, 50, seed=0)
        band = 3 * np.sqrt(0.3 * 0.7 / 50)
        assert (np.abs(values - 0.3) <= band).mean() >= 0.99

    def test_deterministic_given_seed(self):
        a = fingerprint(make_reference("rnd", p=0.6), KIND, PARAMS, NODES, 20, seed=5)
        b = fingerprint(make_reference("rnd", p=0.6), KIND, PARAMS, NODES, 20, seed=5)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize(
        "strategy",
        [
            make_reference("cc", t=2),
            make_reference("cd", t=1),
            kernel_strategy("grim", 0.34),
            kernel_strategy("endgame", 2, 0.5),
            kernel_strategy("rota", 3, 1, 1),
        ],
        ids=lambda s: s.label,
    )
    def test_batched_path_matches_per_decision_path(self, strategy):
        fast = fingerprint(strategy, KIND, PARAMS, NODES, 50, seed=7)
        slow = fingerprint(without_kernel(strategy), KIND, PARAMS, NODES, 50, seed=7)
        assert np.array_equal(fast, slow)
        assert set(np.unique(fast)) <= {0.0, 1.0}  # deterministic strategies

    def test_cc_threshold_structure(self):
        """CC(t) at a depth-1 node cooperates iff the forced count meets t."""
        values = fingerprint(make_reference("cc", t=2), KIND, PARAMS, NODES, 10, seed=0)
        by_node = dict(zip([n.counts for n in NODES], values))
        assert by_node[()] == 1.0
        assert [by_node[(c,)] for c in range(4)] == [0.0, 0.0, 1.0, 1.0]

    def test_cpr_fingerprint_tracks_forced_stock(self):
        """A stock guardian's entry reflects the stock implied by the branch."""
        guardian = kernel_strategy("stock_guardian", 0.5)
        params = GameParams(n=4, rounds=5)
        nodes = enumerate_nodes(4, 5)
        values = fingerprint(guardian, GameKind.COMMON_POOL, params, nodes, 10, seed=0)
        by_node = dict(zip([n.counts for n in nodes], values))
        assert by_node[()] == 1.0  # full stock at the root
        # three forced defectors plus the cooperating subject leave 2 of 16,
        # regrowing to 5.5: fraction 0.34 < 0.5, so the guardian quits
        assert by_node[(0,)] == 0.0
        # all three opponents cooperated alongside the subject: stock stays full
        assert by_node[(3,)] == 1.0

    def test_entries_always_in_unit_interval(self):
        for strategy in (kernel_strategy("reciprocator", 0.5, 0.2),
                         make_reference("rnd", p=0.8)):
            values = fingerprint(strategy, KIND, PARAMS, NODES, 20, seed=3)
            assert (values >= 0.0).all() and (values <= 1.0).all()

    def test_depth_exceeding_rounds_rejected(self):
        with pytest.raises(ValueError):
            fingerprint(make_reference("allc"), KIND, GameParams(n=4, rounds=2, k=2.0),
                        NODES, 10, seed=0)


# one deterministic member of every built-in family; stock_guardian faults
# outside the common-pool game, on both paths alike
DETERMINISTIC_MEMBERS = [
    kernel_strategy("constant", 1.0),
    kernel_strategy("bernoulli", 0.0),
    kernel_strategy("bernoulli", 1.0),
    make_reference("cc", t=2),
    make_reference("cd", t=1),
    kernel_strategy("reciprocator", 0.5, 0.0),
    kernel_strategy("reciprocator", 1.0, 1.0),
    kernel_strategy("grim", 0.34),
    kernel_strategy("endgame", 2, 0.5),
    kernel_strategy("stock_guardian", 0.6),
    kernel_strategy("rota", 3, 1, 1),
]


LATE_DIVIDER = PolicySpec("late-divider", (
    PolicyRule(Predicate("round_lt", value=2.0), 1.0),
    PolicyRule(Predicate("coop_rate_le", value=0.1), 0.0),
    PolicyRule(Predicate("ratio_ge", value=0.5, num="round", den="last_opp_coop"), 1.0),
), 1.0)


def _fingerprint_or_fault(strategy, kind, nodes=NODES):
    try:
        return fingerprint(strategy, kind, PARAMS, nodes, 20, seed=11), None
    except StrategyFault as fault:
        return None, (fault.label, fault.player, fault.round_index, fault.reason)


class TestStackedFingerprint:
    @pytest.mark.parametrize("kind", list(GameKind), ids=lambda k: k.value)
    @pytest.mark.parametrize("strategy", DETERMINISTIC_MEMBERS, ids=lambda s: s.label)
    def test_batched_path_matches_per_decision_path_in_every_game(self, strategy, kind):
        fast, fast_fault = _fingerprint_or_fault(strategy, kind)
        slow, slow_fault = _fingerprint_or_fault(without_kernel(strategy), kind)
        assert fast_fault == slow_fault
        if fast_fault is None:
            assert np.array_equal(fast, slow)
        else:
            assert strategy.kernel[0] == "stock_guardian"

    @pytest.mark.parametrize("kind", list(GameKind), ids=lambda k: k.value)
    def test_shuffled_nodes_give_the_same_values_per_node(self, kind):
        order = np.random.default_rng(4).permutation(len(NODES))
        shuffled = [NODES[i] for i in order]
        for strategy in (kernel_strategy("grim", 0.34), kernel_strategy("endgame", 2, 0.5)):
            values, _ = _fingerprint_or_fault(strategy, kind)
            moved, _ = _fingerprint_or_fault(strategy, kind, shuffled)
            assert np.array_equal(moved, values[order])

    def test_first_fault_at_depth_two_matches_the_per_decision_path(self):
        """Rounds 0 and 1 are settled by the first rule. In round 2 a low
        opponent cooperation rate settles the node too; otherwise the ratio
        rule divides by last round's opponent cooperators, which is zero
        first at node 1.0, the fifth node of depth 2."""
        member = policy_strategy(LATE_DIVIDER)
        faults = []
        for strategy in (member, without_kernel(member)):
            with pytest.raises(StrategyFault) as info:
                fingerprint(strategy, KIND, PARAMS, NODES, 20, seed=11)
            faults.append(info.value)
        fast, slow = faults
        assert (fast.label, fast.player, fast.round_index, fast.reason) == (
            "late-divider", 0, 2, "exception",
        )
        assert (slow.label, slow.player, slow.round_index, slow.reason) == (
            fast.label, fast.player, fast.round_index, fast.reason,
        )
        assert fast.detail.endswith("(at fingerprint node 1.0)")
        assert slow.detail.endswith("(at fingerprint node 1.0)")

    def test_depths_split_into_several_stacks_give_the_same_results(self, monkeypatch):
        whole = [_fingerprint_or_fault(s, GameKind.COMMON_POOL) for s in DETERMINISTIC_MEMBERS]
        # three nodes per chunk of 20 rollouts, so node 1.0 sits in the second
        # chunk of depth 2
        monkeypatch.setattr(fingerprint_module, "_STACK_ROWS", 60)
        split = [_fingerprint_or_fault(s, GameKind.COMMON_POOL) for s in DETERMINISTIC_MEMBERS]
        for (a, a_fault), (b, b_fault) in zip(whole, split):
            assert a_fault == b_fault and np.array_equal(a, b)
        with pytest.raises(StrategyFault) as info:
            fingerprint(policy_strategy(LATE_DIVIDER), KIND, PARAMS, NODES, 20, seed=11)
        assert info.value.round_index == 2
        assert info.value.detail.endswith("(at fingerprint node 1.0)")


def _fault_key(fault, node_name):
    return (fault.label, fault.player, fault.round_index, fault.reason, node_name)


def _driver_or_fault(strategy, kind, rollouts):
    try:
        return fingerprint(strategy, kind, PARAMS, NODES, rollouts, seed=11), None
    except StrategyFault as fault:
        node_name = fault.detail.rsplit("(at fingerprint node ", 1)[1].rstrip(")")
        return None, _fault_key(fault, node_name)


def _reference_or_fault(strategy, kind, rollouts):
    """The per-decision reference, node by node on one stream."""
    rng = rng_for(11)
    values = np.empty(len(NODES))
    for i, node in enumerate(NODES):
        try:
            values[i] = fingerprint_node(strategy, kind, PARAMS, node, rollouts, rng)
        except StrategyFault as fault:
            return None, _fault_key(fault, node.column_name())
    return values, None


def _probe(obs, rng):
    """Cooperates in round 0, then iff it cooperated itself and opponent 1
    did last round, and (common-pool game) the stock is at least 9.5."""
    if obs.round_index == 0:
        return Action.C
    last = obs.history[-1].actions
    assert len(last) == obs.params.n
    keep = last[0] is Action.C and last[1] is Action.C
    if obs.current_stock is not None:
        keep = keep and obs.current_stock >= 9.5
    return Action.C if keep else Action.D


def _probe_value(counts, kind):
    """The probe's closed form: every forced count is at least 1 and, in the
    common-pool game, the stock after each round is at least 9.5, with the
    subject cooperating alongside the forced opponents."""
    n, capacity = PARAMS.n, PARAMS.capacity
    stock = capacity
    for count in counts:
        if count < 1:
            return 0.0
        if kind is GameKind.COMMON_POOL:
            remaining = stock * (1 + count) / (2 * n)
            stock = min(capacity, remaining + 2.0 * remaining * (1.0 - remaining / capacity))
            if stock < 9.5:
                return 0.0
    return 1.0


class TestOneDriver:
    @pytest.mark.parametrize("with_kernel", [True, False], ids=["kernel", "callable"])
    @pytest.mark.parametrize("kind", list(GameKind), ids=lambda k: k.value)
    @pytest.mark.parametrize(
        "strategy", DETERMINISTIC_MEMBERS + [policy_strategy(LATE_DIVIDER)], ids=lambda s: s.label
    )
    def test_driver_matches_the_per_decision_reference(self, strategy, kind, with_kernel):
        if not with_kernel:
            strategy = without_kernel(strategy)
        values, fault = _driver_or_fault(strategy, kind, rollouts=2)
        expected, expected_fault = _reference_or_fault(strategy, kind, rollouts=2)
        assert fault == expected_fault
        if fault is None:
            assert np.array_equal(values, expected)
        elif strategy.label == "late-divider":
            assert fault == ("late-divider", 0, 2, "exception", "1.0")
        else:
            assert fault[:2] == ("stock_guardian(0.6)", 0) and fault[4] == "root"

    @pytest.mark.parametrize("kind", list(GameKind), ids=lambda k: k.value)
    def test_plain_function_sees_the_forced_history_and_stock(self, kind):
        probe = Strategy("probe", "test", _probe)
        values = fingerprint(probe, kind, PARAMS, NODES, 2, seed=0)
        expected = [_probe_value(node.counts, kind) for node in NODES]
        assert values.tolist() == expected
        assert 0 < sum(expected) < len(NODES)

    @pytest.mark.parametrize("split", [False, True], ids=["whole", "split"])
    @pytest.mark.parametrize("kind", [KIND, GameKind.COMMON_POOL], ids=lambda k: k.value)
    def test_each_row_is_a_lone_fingerprint_on_its_derived_seed(self, kind, split, monkeypatch):
        """Strategies of a family share stacks, and each still draws from its
        own stream as it would alone. Whole, most families share every stack
        and the deep policy and kernel-less stacks hold one strategy each.
        ``split`` cuts depths 3 and 4 into chunks of 40 nodes of 10 rollouts
        (20 for strategies without a kernel) and budgets a stack at 8,000
        words, so the deeper chunks of the heavier families (policy,
        reciprocator, kernel-less) spread their strategies over several
        stacks while the others still share."""
        if split:
            monkeypatch.setattr(fingerprint_module, "_STACK_ROWS", 400)
            monkeypatch.setattr(fingerprint_module, "_CALLABLE_STACK_ROWS", 200)
            monkeypatch.setattr(engine, "STACK_WORDS", 8000)
        members = list(SHARED_MEMBERS)
        if kind is GameKind.COMMON_POOL:
            members[3:3] = [kernel_strategy("stock_guardian", 0.6),
                            kernel_strategy("stock_guardian", 0.3)]
        matrix = fingerprint_many(members, kind, PARAMS, NODES, 10, seed=9)
        assert matrix.shape == (len(members), len(NODES))
        for i, strategy in enumerate(members):
            lone = fingerprint(strategy, kind, PARAMS, NODES, 10, derive_seed(9, i))
            assert np.array_equal(matrix[i], lone), strategy.label

    def test_stacks_of_several_strategies_keep_to_the_engine_budget(self, monkeypatch):
        """Forty-rule policy tables hold about 590 words a row, so a depth-2
        chunk of 16 nodes of 50 rollouts already outweighs the budget for
        two strategies: each deep chunk plays one strategy a stack, and the
        shallow ones share."""
        members = [policy_strategy(PolicySpec(f"long{i}", tuple(
            PolicyRule(Predicate("last_coop_ge", value=float(1 + (i + j) % 3)), j / 40)
            for j in range(40)
        ), 0.5)) for i in range(3)]
        charge = engine.block_words(MemberTable.compile(members), PARAMS)
        stacks = []
        play = fingerprint_module._NodeChunk.play

        def recorded(chunk, family, P, draws):
            stacks.append((len(draws), charge(np.zeros((len(P), 1), dtype=np.int64))))
            return play(chunk, family, P, draws)

        monkeypatch.setattr(fingerprint_module._NodeChunk, "play", recorded)
        fingerprint_many(members, KIND, PARAMS, NODES, 50, seed=3)
        shared = [words for strategies, words in stacks if strategies > 1]
        assert shared and max(shared) <= engine.STACK_WORDS
        assert len(stacks) > len(shared)

    @pytest.mark.parametrize("with_kernel", [True, False], ids=["kernel", "callable"])
    def test_the_lowest_listed_fault_is_raised_as_its_lone_call_raises_it(self, with_kernel):
        """The late divider faults at depth 2 (node 1.0). A later-listed
        member of the same family faults at the root, in the same stacks, so
        the members listed before it play again on their own, each from a
        fresh stream. Where ``flaky`` first faults depends on its stream, so
        it shows a replay that did not start from a fresh one."""
        if with_kernel:
            early, late = policy_strategy(LATE_DIVIDER), policy_strategy(STOCK_READER)
        else:
            early, late = Strategy("flaky", "test", _flaky), Strategy("broken", "test", _broken)
        members = [make_reference("rnd", p=0.4), early, make_reference("allc"), late,
                   kernel_strategy("stock_guardian", 0.6)]
        with pytest.raises(StrategyFault) as info:
            fingerprint_many(members, KIND, PARAMS, NODES, 20, seed=11)
        with pytest.raises(StrategyFault) as lone:
            fingerprint(early, KIND, PARAMS, NODES, 20, derive_seed(11, 1))
        got, expected = info.value, lone.value
        assert (got.label, got.player, got.round_index, got.reason, got.detail) == (
            expected.label, expected.player, expected.round_index, expected.reason,
            expected.detail,
        )
        assert got.label == early.label and got.round_index == 2
        if with_kernel:
            assert got.detail.endswith("(at fingerprint node 1.0)")
        for strategy in (late, members[4]):
            with pytest.raises(StrategyFault) as root:
                fingerprint(strategy, KIND, PARAMS, NODES, 20, seed=0)
            assert root.value.detail.endswith("(at fingerprint node root)")


# two non-faulting policy tables of different widths
SHORT_POLICY = PolicySpec("short-policy", (
    PolicyRule(Predicate("last_coop_ge", value=2.0), 0.9),
), 0.3)
LONG_POLICY = PolicySpec("long-policy", (
    PolicyRule(Predicate("round_lt", value=1.0), 1.0),
    PolicyRule(Predicate("coop_rate_le", value=0.4), 0.2),
    PolicyRule(Predicate("rounds_left_le", value=1.0), 0.0),
), 0.6)
# faults at the root of the public-goods game: stock_frac is undefined there
STOCK_READER = PolicySpec("stock-reader", (
    PolicyRule(Predicate("stock_frac_ge", value=0.5), 1.0),
), 0.5)


def _flaky(obs, rng):
    """Draws once per decision; from round 2 on, raises on about one draw
    in 50, so where it first faults depends on the stream."""
    if rng.random() < 0.02 and obs.round_index >= 2:
        raise RuntimeError("flaked")
    return Action.C


def _broken(obs, rng):
    raise RuntimeError("broken")


# two members of every built-in family that plays every game, and two
# without a kernel, one of which draws
SHARED_MEMBERS = [
    kernel_strategy("constant", 1.0),
    kernel_strategy("bernoulli", 0.3),
    make_reference("cc", t=2),
    kernel_strategy("reciprocator", 0.5, 0.2),
    kernel_strategy("grim", 0.34),
    kernel_strategy("endgame", 2, 0.5),
    kernel_strategy("rota", 3, 1, 1),
    policy_strategy(SHORT_POLICY),
    Strategy("probe", "test", _probe),
    kernel_strategy("constant", 0.0),
    kernel_strategy("bernoulli", 0.7),
    make_reference("cd", t=1),
    kernel_strategy("reciprocator", 1.0, 0.6),
    kernel_strategy("grim", 0.0),
    kernel_strategy("endgame", 1, 1.0),
    kernel_strategy("rota", 2, 0, 0),
    policy_strategy(LONG_POLICY),
    without_kernel(kernel_strategy("reciprocator", 0.5, 0.3)),
]


# one member of each family whose reads hold neither ``u`` nor ``rng``, and
# of each that draws; all play the common-pool game
NON_DRAWING_MEMBERS = [
    kernel_strategy("constant", 1.0),
    make_reference("cc", t=2),
    kernel_strategy("grim", 0.34),
    kernel_strategy("endgame", 2, 0.5),
    kernel_strategy("rota", 3, 1, 1),
    kernel_strategy("stock_guardian", 0.6),
]
DRAWING_MEMBERS = [
    kernel_strategy("bernoulli", 0.3),
    kernel_strategy("reciprocator", 0.5, 0.2),
    policy_strategy(SHORT_POLICY),
    Strategy("probe", "test", _probe),
]


def _round_zero_rows(monkeypatch, strategy, rollouts):
    """The rows of each round-0 call of a lone fingerprint of ``strategy``
    in the common-pool game, with the names of the families called."""
    calls = []
    decide_group = fingerprint_module.decide_group

    def recording(family, P, state, view):
        if view.t == 0:
            calls.append((family.name, len(P)))
        return decide_group(family, P, state, view)

    monkeypatch.setattr(fingerprint_module, "decide_group", recording)
    fingerprint(strategy, GameKind.COMMON_POOL, PARAMS, NODES, rollouts, seed=5)
    return calls


class TestOnePlayPerNode:
    """A family that draws nothing plays each node once: its rollouts would
    all repeat one game."""

    @pytest.mark.parametrize("strategy", NON_DRAWING_MEMBERS, ids=lambda s: s.label)
    def test_a_family_that_draws_nothing_sends_one_row_per_node(self, strategy, monkeypatch):
        calls = _round_zero_rows(monkeypatch, strategy, 20)
        assert {name for name, _ in calls} == {strategy.kernel[0]}
        assert sum(rows for _, rows in calls) == len(NODES)

    @pytest.mark.parametrize("strategy", DRAWING_MEMBERS, ids=lambda s: s.label)
    def test_a_drawing_family_sends_every_rollout(self, strategy, monkeypatch):
        calls = _round_zero_rows(monkeypatch, strategy, 20)
        family = strategy.kernel[0] if strategy.kernel else "callable"
        assert {name for name, _ in calls} == {family}
        assert sum(rows for _, rows in calls) == len(NODES) * 20
        assert all(rows % 20 == 0 for _, rows in calls)

    @pytest.mark.parametrize("kind", list(GameKind), ids=lambda k: k.value)
    @pytest.mark.parametrize("strategy", NON_DRAWING_MEMBERS, ids=lambda s: s.label)
    def test_values_equal_the_reference_that_plays_every_rollout(self, strategy, kind):
        values, fault = _driver_or_fault(strategy, kind, rollouts=20)
        expected, expected_fault = _reference_or_fault(strategy, kind, rollouts=20)
        assert fault == expected_fault
        if fault is None:
            assert np.array_equal(values, expected)
        else:
            assert strategy.kernel[0] == "stock_guardian" and fault[4] == "root"

    def test_a_faulting_member_keeps_its_message(self):
        members = [make_reference("allc"), kernel_strategy("stock_guardian", 0.5)]
        params = GameParams(n=4, rounds=3, k=2.0)
        with pytest.raises(StrategyFault) as info:
            fingerprint_many(members, KIND, params, enumerate_nodes(4, 3), 20, seed=3)
        assert str(info.value) == (
            "strategy 'stock_guardian(0.5)' (player 0, round 0) exception: KernelError: "
            "stock_guardian requires a common-pool game (at fingerprint node root)"
        )

    def test_a_fault_is_placed_by_one_row_per_node(self, monkeypatch):
        """The second member faults first at depth 2, in the third row of its
        stack, the one for node 0.2."""
        monkeypatch.setitem(FAMILIES, "late_fault", _LateFault())
        members = [kernel_strategy("late_fault", 0.0), kernel_strategy("late_fault", 1.0)]
        with pytest.raises(StrategyFault) as info:
            fingerprint_many(members, KIND, PARAMS, NODES, 20, seed=3)
        got = info.value
        assert (got.label, got.round_index, got.detail) == (
            "late_fault(1.0)", 2, "late (at fingerprint node 0.2)",
        )


class _LateFault(KernelFamily):
    """Draws nothing. In round 2, a row whose ``fault`` flag is set faults
    when two opponents cooperated in round 1; the first such row is raised."""

    name = "late_fault"
    param_names = ("fault",)
    reads = ("opp_coop",)

    def decide_batch(self, P, state, view):
        if view.t == 2:
            faults = (P[:, 0] == 1.0) & (view.opp_coop == 2)
            if faults.any():
                raise SlotFault(int(faults.argmax()), "exception", "late")
        return np.ones(len(P), dtype=bool)


class TestPca:
    def test_rank_one_data(self):
        line = np.outer(np.linspace(0, 1, 6), np.array([1.0, 2.0, 3.0]))
        result = pca(line)
        assert result.explained_ratios[0] == pytest.approx(1.0, abs=1e-9)
        assert np.all(result.eigenvalues[1:] <= 1e-9)

    def test_explained_ratios_sum_to_one(self, rng):
        data = rng.random((10, 6))
        result = pca(data)
        assert result.explained_ratios.sum() == pytest.approx(1.0, abs=1e-12)

    def test_characteristic_polynomial_oracle(self):
        # scatter matrix of this dataset is [[5,0,1],[0,1,-2],[1,-2,5]] whose
        # characteristic polynomial is l^3 - 11 l^2 + 30 l - 4 (expanded by
        # hand along the first row); covariance eigenvalues are its roots / 3
        data = np.array([[2, 0, 1], [0, 1, -1], [3, 1, 0], [1, 0, 2]], dtype=float)
        roots = np.sort(np.roots([1.0, -11.0, 30.0, -4.0]))[::-1]
        result = pca(data)
        assert np.allclose(result.eigenvalues, roots / 3.0, atol=1e-8)

    def test_eigenvalues_sorted_nonnegative(self, rng):
        result = pca(rng.random((8, 5)))
        assert np.all(result.eigenvalues >= 0)
        assert np.all(np.diff(result.eigenvalues) <= 1e-12)

    def test_eigenvalue_count_capped_by_samples(self, rng):
        # 3 samples in 6 dimensions span at most a 2-dimensional subspace
        result = pca(rng.random((3, 6)))
        assert len(result.eigenvalues) == 2
        assert result.components.shape == (2, 6)
        assert result.projections.shape == (3, 2)

    def test_components_orthonormal(self, rng):
        result = pca(rng.random((12, 7)))
        gram = result.components @ result.components.T
        assert np.allclose(gram, np.eye(len(gram)), atol=1e-8)

    def test_distance_preservation_with_all_components(self, rng):
        data = rng.random((9, 5))
        result = pca(data)
        for i in range(len(data)):
            for j in range(i + 1, len(data)):
                original = np.linalg.norm(data[i] - data[j])
                projected = np.linalg.norm(result.projections[i] - result.projections[j])
                assert projected == pytest.approx(original, rel=1e-6)

    @pytest.mark.parametrize("shape", [(30, 8), (10, 20)], ids=["tall", "wide"])
    def test_matches_the_covariance_eigendecomposition(self, rng, shape):
        """A reference fit by ``eigh`` of the d x d covariance, with the
        same sign convention: eigenvalues agree to 1e-12 of the largest,
        and components whose eigenvalues are well separated to 1e-9."""
        data = rng.random(shape)
        n, d = shape
        centered = data - data.mean(axis=0)
        values, vectors = np.linalg.eigh(centered.T @ centered / (n - 1))
        k = min(n - 1, d)
        values, vectors = values[::-1][:k], vectors[:, ::-1][:, :k].T
        vectors *= np.where(vectors.sum(axis=1) < 0, -1.0, 1.0)[:, None]
        result = pca(data)
        scale = values[0]
        assert np.abs(result.eigenvalues - values).max() <= 1e-12 * scale
        gaps = np.abs(np.subtract.outer(values, values)) + np.eye(k) * scale
        separated = gaps.min(axis=1) > 1e-3 * scale
        assert separated.sum() >= k - 1
        assert np.abs(result.components[separated] - vectors[separated]).max() <= 1e-9

    def test_rank_deficient_data_keeps_orthonormal_components(self, rng):
        """Duplicated rows leave 5 of the 11 eigenvalues at round-off: the
        components are still orthonormal and the eigenvalues still carry the
        whole variance (the properties the benchmark's PCA oracle checks)."""
        base = rng.random((6, 11))
        data = np.vstack([base, base, base[:3]])
        result = pca(data)
        assert len(result.eigenvalues) == 11
        assert np.all(result.eigenvalues >= 0.0)
        assert np.all(np.diff(result.eigenvalues) <= 0.0)
        gram = result.components @ result.components.T
        assert np.abs(gram - np.eye(11)).max() <= 1e-12
        total = data.var(axis=0, ddof=1).sum()
        assert result.eigenvalues.sum() == pytest.approx(total, rel=1e-12)
        assert np.all(result.eigenvalues[5:] <= 1e-12 * result.eigenvalues[0])

    def test_fewer_than_two_samples_rejected(self):
        with pytest.raises(ValueError):
            pca(np.ones((1, 3)))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pca([np.ones(3), np.ones(4)])

    def test_first_axis_tracks_cooperation_rate(self):
        """On the constant-rate ladder, PC1 orders strategies by how much
        they cooperate, most cooperative highest."""
        ladder = [make_reference("alld")]
        ladder += [make_reference("rnd", p=p) for p in (0.25, 0.5, 0.75)]
        ladder += [make_reference("allc")]
        matrix = fingerprint_many(ladder, KIND, PARAMS, NODES, 50, seed=2)
        result = pca(matrix)
        pc1 = result.projections[:, 0]
        assert np.all(np.diff(pc1) > 0)


class TestMetrics:
    def test_mpd_identical_vectors(self):
        assert mpd(np.ones((5, 8))) == 0.0

    def test_mpd_zero_one_pair(self):
        # raw distance sqrt(d), normaliser sqrt(d/6): ratio sqrt(6)
        value = mpd(np.vstack([np.zeros(30), np.ones(30)]))
        assert value == pytest.approx(np.sqrt(6.0), abs=1e-12)

    def test_mpd_normaliser_self_consistency(self, rng):
        data = rng.random((1500, 50))
        assert mpd(data) == pytest.approx(1.0, abs=0.02)

    def test_mpd_needs_two_vectors(self):
        with pytest.raises(ValueError):
            mpd(np.ones((1, 4)))

    def test_cohens_d_same_set_is_zero(self, rng):
        data = rng.random((6, 4))
        assert cohens_d(data, data) == 0.0

    def test_cohens_d_point_masses_error(self):
        a = np.zeros((3, 2))
        b = np.ones((3, 2))
        with pytest.raises(ValueError, match="undefined"):
            cohens_d(a, b)

    def test_cohens_d_hand_oracle(self):
        # centroids (1,1) and (5,2), both variances 8/3, so
        # d = sqrt(17) / sqrt(8/3) = sqrt(51/8)
        set_a = np.array([[0, 0], [2, 0], [1, 3]], dtype=float)
        set_b = np.array([[4, 1], [6, 1], [5, 4]], dtype=float)
        assert cohens_d(set_a, set_b) == pytest.approx(np.sqrt(51 / 8), abs=1e-9)

    def test_participation_ratio_identities(self):
        assert participation_ratio([3.0] * 7) == pytest.approx(7.0, abs=1e-12)
        assert participation_ratio([1.0, 0.0, 0.0]) == pytest.approx(1.0, abs=1e-12)
        assert participation_ratio([2.0, 1.0]) == pytest.approx(1.8, abs=1e-12)

    def test_participation_ratio_errors(self):
        with pytest.raises(ValueError):
            participation_ratio([0.0, 0.0])
        with pytest.raises(ValueError):
            participation_ratio([-1.0, 2.0])
        with pytest.raises(ValueError):
            participation_ratio([])

    @given(st.integers(2, 12))
    @settings(max_examples=20, deadline=None)
    def test_pr_bounded_by_nonzero_count(self, k):
        rng = np.random.default_rng(k)
        lam = np.concatenate([rng.random(k) + 0.01, np.zeros(3)])
        value = participation_ratio(lam)
        assert 1.0 - 1e-9 <= value <= k + 1e-9

    def test_metrics_invariant_under_common_permutation(self, rng):
        a = rng.random((5, 9))
        b = rng.random((6, 9))
        perm = rng.permutation(9)
        assert mpd(a) == pytest.approx(mpd(a[:, perm]), abs=1e-12)
        assert cohens_d(a, b) == pytest.approx(cohens_d(a[:, perm], b[:, perm]), abs=1e-12)
        lam = rng.random(9)
        shuffled = lam[rng.permutation(9)]
        assert participation_ratio(lam) == pytest.approx(
            participation_ratio(shuffled), abs=1e-12
        )


# every float json and repr can write, with NaN, both infinities, -0.0, a
# subnormal and a near-largest magnitude drawn often
FLOATS = st.one_of(
    st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e308]),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
)


def _written(write, *args) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out"
        write(*args, path)
        return path.read_bytes().decode()


class TestSerialization:
    """The writers format numbers in C, byte for byte as ``json.dumps(...,
    indent=2)`` and ``repr(float(v))`` per value would."""

    @given(st.integers(0, 4), st.integers(0, 4), st.data())
    @settings(max_examples=60, deadline=None)
    def test_pca_json_is_json_dumps_with_indent(self, rows, dims, data):
        flat = data.draw(st.lists(FLOATS, min_size=rows * dims, max_size=rows * dims))
        values = np.array(flat, dtype=float).reshape(rows, dims)
        result = PcaResult(
            eigenvalues=values[:, 0] if dims else np.empty(0),
            components=values,
            explained_ratios=values[:, -1] if dims else np.empty(0),
            projections=np.empty((0, 0)),
            mean=values[0] if rows else np.empty(0),
        )
        expected = json.dumps(result.to_dict(), indent=2) + "\n"
        assert _written(write_pca_json, result) == expected

    @pytest.mark.parametrize("shape", [(2, 5), (6, 3), (12, 341), (5, 1)])
    def test_pca_json_of_a_fit_is_json_dumps_with_indent(self, rng, shape):
        result = pca(rng.random(shape))
        if shape[0] == 2:
            assert len(result.components) == 1
        expected = json.dumps(result.to_dict(), indent=2) + "\n"
        assert _written(write_pca_json, result) == expected

    @given(st.lists(FLOATS, min_size=6, max_size=6),
           st.sampled_from([np.float64, np.float32, np.int64]))
    @settings(max_examples=60, deadline=None)
    def test_csv_rows_are_repr_of_each_float(self, flat, dtype):
        labels = ["plain", 'a "quoted", comma']
        sets = ["x/collective", 'set, "odd"']
        matrix = np.array(flat).reshape(2, 3)
        if dtype is np.int64:
            matrix = np.clip(np.nan_to_num(matrix), -1e15, 1e15)
        with np.errstate(over="ignore"):  # a float32 matrix rounds large values to inf
            matrix = matrix.astype(dtype)
        nodes = NODES[:3]

        def reference_rows(header, lead, rows):
            buffer = io.StringIO(newline="")
            writer = csv.writer(buffer)
            writer.writerow(header)
            for first, row in zip(lead, rows):
                writer.writerow(list(first) + [repr(float(v)) for v in row])
            return buffer.getvalue()

        header = ["label"] + [f"node_{i:03d}" for i in range(3)]
        assert _written(write_fingerprint_csv, labels, matrix, nodes) == reference_rows(
            header, [[label] for label in labels], matrix
        )
        projections = _written(write_projections_csv, labels, sets, matrix)
        assert projections == reference_rows(
            ["label", "set", "pc1", "pc2"], zip(labels, sets), matrix[:, :2]
        )


# sha256 of fingerprints.csv for kernel-less twins of every built-in family
# on the common-pool game; a change to what a ``callable`` row observes or
# to its draw order changes it
KERNEL_LESS_FINGERPRINT_SHA256 = "aeadcbc032eeecaab2789d4cdcb310e283f6985f0b2baa4cdd61b41d529a488b"


def test_kernel_less_fingerprint_outputs_are_pinned(tmp_path):
    kind, params = GameKind.COMMON_POOL, GameParams(n=4, rounds=5)
    nodes = enumerate_nodes(4, 4)
    twins = twin_pool(kind, 1, 5, Attitude.COLLECTIVE).members
    matrix = fingerprint_many(twins, kind, params, nodes, rollouts=6, seed=29)
    write_fingerprint_csv([s.label for s in twins], matrix, nodes, tmp_path / "fingerprints.csv")
    digest = hashlib.sha256((tmp_path / "fingerprints.csv").read_bytes()).hexdigest()
    assert digest == KERNEL_LESS_FINGERPRINT_SHA256
