"""Pool synthesis and the validation gate."""

import numpy as np
import pytest

from ndilemma import (
    Action,
    Attitude,
    FamilySpec,
    GameKind,
    GameParams,
    make_reference,
    play_game,
    synth_pool,
    validate_strategy,
)
from ndilemma.policy import PolicyRule, PolicySpec, Predicate, policy_strategy
from ndilemma.pools import admit_pool
from ndilemma.seeding import rng_for
from ndilemma.strategies import StrategyPool


class TestSynthPool:
    def test_alld_only_family(self):
        pool = synth_pool(
            [FamilySpec("constant", params={"cooperate": 0})],
            512, seed=1, gene_tag="stub", attitude=Attitude.EXPLOITATIVE,
        )
        assert len(pool) == 512
        obs_game = play_game(
            GameKind.PUBLIC_GOODS, GameParams(n=4, rounds=3, k=2.0),
            list(pool.members[:4]), seed=0,
        )
        assert not obs_game.coop.any()

    def test_deterministic_given_seed(self):
        families = [FamilySpec("bernoulli"), FamilySpec("reciprocator")]
        a = synth_pool(families, 100, seed=9, gene_tag="x", attitude=Attitude.COLLECTIVE)
        b = synth_pool(families, 100, seed=9, gene_tag="x", attitude=Attitude.COLLECTIVE)
        assert [m.label for m in a.members] == [m.label for m in b.members]
        assert [m.kernel for m in a.members] == [m.kernel for m in b.members]

    def test_different_seed_differs(self):
        families = [FamilySpec("bernoulli")]
        a = synth_pool(families, 50, seed=1, gene_tag="x", attitude=Attitude.COLLECTIVE)
        b = synth_pool(families, 50, seed=2, gene_tag="x", attitude=Attitude.COLLECTIVE)
        assert [m.kernel for m in a.members] != [m.kernel for m in b.members]

    def test_endgame_family_shape(self):
        """Every endgame member cooperates in round 0 and defects at the end
        when everyone else cooperates."""
        pool = synth_pool(
            [FamilySpec("endgame", params={"horizon": {"int_uniform": [1, 5]}})],
            40, seed=3, gene_tag="eg", attitude=Attitude.EXPLOITATIVE,
        )
        params = GameParams(n=4, rounds=10, k=2.0)
        for member in pool.members:
            game = play_game(
                GameKind.PUBLIC_GOODS, params,
                [member] + [make_reference("allc")] * 3, seed=0,
            )
            assert game.coop[0, 0]
            assert not game.coop[-1, 0]

    def test_empty_family_list(self):
        with pytest.raises(ValueError):
            synth_pool([], 10, 0, "x", Attitude.COLLECTIVE)

    def test_rota_phase_normalised(self):
        pool = synth_pool(
            [FamilySpec("rota", params={"period": 2, "phase": 3, "punish": 0})],
            10, seed=0, gene_tag="rota", attitude=Attitude.COLLECTIVE,
        )
        for member in pool.members:
            _, params = member.kernel
            assert params[1] < params[0]


class TestValidateStrategy:
    PARAMS = GameParams(n=4, rounds=10, k=2.0)

    def test_allc_passes_with_rate_one(self):
        report = validate_strategy(
            make_reference("allc"), GameKind.PUBLIC_GOODS, self.PARAMS, trials=20, seed=0
        )
        assert report.passed
        assert report.cooperation_rate == 1.0
        assert not report.failures

    def test_rnd_rate_within_band(self):
        report = validate_strategy(
            make_reference("rnd", p=0.5), GameKind.PUBLIC_GOODS, self.PARAMS,
            trials=200, seed=0,
        )
        assert report.passed
        assert abs(report.cooperation_rate - 0.5) < 0.1

    def test_ratio_trap_flagged_as_step_fault(self):
        spec = PolicySpec(
            label="last-round-divider",
            rules=(
                PolicyRule(
                    Predicate("ratio_ge", value=0.5, num="last_opp_coop",
                              den="rounds_left_after"),
                    1.0,
                ),
            ),
            default_prob=1.0,
        )
        report = validate_strategy(
            policy_strategy(spec), GameKind.PUBLIC_GOODS, self.PARAMS, trials=5, seed=0
        )
        assert not report.step_ok
        assert not report.passed
        assert any("ZeroDivisionError" in f for f in report.failures)

    def test_invalid_action_flagged(self):
        from ndilemma.strategies import Strategy

        bad = Strategy("stringly", "file", lambda obs, rng: "C")
        report = validate_strategy(bad, GameKind.PUBLIC_GOODS, self.PARAMS, trials=3, seed=0)
        assert not report.action_ok
        assert not report.passed

    def test_nondeterminism_flagged(self):
        from ndilemma.strategies import Strategy

        wild = Strategy(
            "entropy-reader", "file",
            lambda obs, rng: Action.C if np.random.random() < 0.5 else Action.D,
        )
        report = validate_strategy(wild, GameKind.PUBLIC_GOODS, self.PARAMS, trials=40, seed=0)
        assert not report.deterministic
        assert not report.passed

    def test_replay_fault_lands_in_the_report(self):
        """A strategy that keeps state across games and raises from its
        second game faults on the first trial's replay, and later trials."""
        from ndilemma.strategies import Strategy

        games = []

        def wears_out(obs, rng):
            if obs.round_index == 0:
                games.append(obs)
            if len(games) > 1:
                raise RuntimeError("worn out")
            return Action.C

        worn = Strategy("wears-out", "file", wears_out)
        report = validate_strategy(worn, GameKind.PUBLIC_GOODS, self.PARAMS, trials=3, seed=0)
        assert not report.passed
        assert not report.step_ok
        assert not report.deterministic
        assert report.action_ok
        assert report.failures[0].startswith("trial 0, replay: ")
        assert "RuntimeError: worn out" in report.failures[0]
        assert [f.split(":")[0] for f in report.failures[1:]] == ["trial 1", "trial 2"]

    def test_admit_pool_filters_failures(self):
        spec = PolicySpec(
            label="divider",
            rules=(
                PolicyRule(
                    Predicate("ratio_ge", value=0.5, num="last_opp_coop",
                              den="rounds_left_after"),
                    1.0,
                ),
            ),
            default_prob=1.0,
        )
        pool = StrategyPool(
            "mixed", Attitude.COLLECTIVE,
            (make_reference("allc"), policy_strategy(spec), make_reference("alld")),
        )
        admitted, reports = admit_pool(pool, GameKind.PUBLIC_GOODS, self.PARAMS, trials=5, seed=0)
        assert [r.passed for r in reports] == [True, False, True]
        assert len(admitted) == 2


@pytest.mark.slow
def test_admitted_strategies_never_abort_in_fuzzed_games():
    """Gate soundness: anything the gate admits survives 10,000 fuzzed games."""
    spec_ok = PolicySpec(
        label="careful",
        rules=(
            PolicyRule(Predicate("round_is", value=0), 1.0),
            PolicyRule(Predicate("last_coop_ge", value=2), 1.0),
            PolicyRule(Predicate("coop_rate_le", value=0.25), 0.0),
        ),
        default_prob=0.5,
    )
    candidates = [
        policy_strategy(spec_ok),
        make_reference("cc", t=2),
        make_reference("rnd", p=0.3),
    ]
    params = GameParams(n=4, rounds=10, k=2.0)
    admitted = [
        s for s in candidates
        if validate_strategy(s, GameKind.PUBLIC_GOODS, params, trials=20, seed=1).passed
    ]
    assert len(admitted) == 3
    menu = [make_reference("allc"), make_reference("alld"), make_reference("cd", t=1)]
    rng = rng_for(77)
    for i in range(10_000):
        subject = admitted[i % len(admitted)]
        lineup = [subject] + [menu[int(rng.integers(len(menu)))] for _ in range(3)]
        kind = [GameKind.PUBLIC_GOODS, GameKind.COLLECTIVE_RISK, GameKind.COMMON_POOL][i % 3]
        play_game(kind, params, lineup, seed=int(rng.integers(2**63)))
