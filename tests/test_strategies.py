"""Reference strategies and the kernel families behind them."""

import numpy as np
import pytest

from ndilemma import Action, GameKind, GameParams, Observation, make_reference, play_game
from ndilemma.kernels import FAMILIES, kernel_strategy
from ndilemma.strategies import Attitude, StrategyPool

C, D = Action.C, Action.D


def obs_with(n=4, round_index=1, opp_coop_last=0, kind=GameKind.PUBLIC_GOODS, **kwargs):
    params = GameParams(n=n, rounds=10, k=2.0)
    if round_index == 0:
        return Observation(kind, params, 0, 0, ())
    return Observation(
        kind, params, round_index, 0, (),
        opp_coop_last=opp_coop_last,
        opp_coop_rate=kwargs.get("opp_coop_rate", opp_coop_last / (n - 1)),
        my_last_action=kwargs.get("my_last_action", C),
        current_stock=kwargs.get("current_stock"),
    )


def decide(strategy, obs):
    return strategy.decide(obs, np.random.default_rng(0))


class TestReferences:
    def test_cc_cooperates_first_round(self):
        assert decide(make_reference("cc", t=2), obs_with(round_index=0)) is C

    def test_cc_below_threshold_defects(self):
        assert decide(make_reference("cc", t=2), obs_with(opp_coop_last=1)) is D

    def test_cd_defects_when_opponents_cooperate(self):
        assert decide(make_reference("cd", t=1), obs_with(opp_coop_last=2)) is D

    def test_cd_defects_first_round(self):
        assert decide(make_reference("cd", t=1), obs_with(round_index=0)) is D

    def test_reference_table_exhaustive(self):
        """For every threshold and count with up to 8 players: CC plays C iff
        count >= t, CD plays D iff count >= t (after round 0)."""
        for n in range(2, 9):
            for t in range(n):
                cc = make_reference("cc", t=t)
                cd = make_reference("cd", t=t)
                for count in range(n):
                    obs = obs_with(n=n, opp_coop_last=count)
                    assert (decide(cc, obs) is C) == (count >= t)
                    assert (decide(cd, obs) is D) == (count >= t)

    def test_rnd_rate(self):
        strat = make_reference("rnd", p=0.25)
        rng = np.random.default_rng(7)
        draws = [strat.decide(obs_with(round_index=0), rng) is C for _ in range(4000)]
        assert abs(np.mean(draws) - 0.25) < 3 * np.sqrt(0.25 * 0.75 / 4000)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            make_reference("rnd", p=1.5)
        with pytest.raises(ValueError):
            make_reference("cc", t=-1)
        with pytest.raises(ValueError):
            make_reference("rnd")
        with pytest.raises(ValueError):
            make_reference("nonesuch")


class TestFamilies:
    def test_unknown_family(self):
        with pytest.raises(ValueError):
            kernel_strategy("frobnicator", 1.0)

    def test_param_count_checked(self):
        with pytest.raises(ValueError):
            kernel_strategy("grim", 0.1, 0.2)

    def test_grim_triggers_permanently(self):
        grim = kernel_strategy("grim", 0.0)
        lineup = [grim, kernel_strategy("rota", 4, 0, 0), make_reference("allc")]
        game = play_game(GameKind.PUBLIC_GOODS, GameParams(n=3, rounds=8, k=2.0), lineup, seed=0)
        col = game.coop[:, 0]
        # rota defects in round 1, grim sees it in round 2 and never recovers
        first_defect = int(np.argmin(col))
        assert not col[first_defect:].any()
        assert col[:first_defect].all()

    def test_endgame_defects_in_last_horizon_rounds(self):
        params = GameParams(n=3, rounds=10, k=2.0)
        for horizon in range(1, 6):
            strat = kernel_strategy("endgame", horizon, 0.0)
            lineup = [strat] + [make_reference("allc")] * 2
            game = play_game(GameKind.PUBLIC_GOODS, params, lineup, seed=0)
            col = game.coop[:, 0]
            assert col[0]
            assert col[: 10 - horizon].all()
            assert not col[10 - horizon :].any()

    def test_rota_follows_schedule_without_punish(self):
        params = GameParams(n=4, rounds=6, k=2.0)
        lineup = [kernel_strategy("rota", 2, 0, 0)] + [make_reference("allc")] * 3
        game = play_game(GameKind.PUBLIC_GOODS, params, lineup, seed=0)
        assert game.coop[:, 0].tolist() == [True, False, True, False, True, False]

    def test_rota_punishes_off_schedule_opponents(self):
        # punishing rota at index 0, everyone else defects: schedule says
        # cooperate on even rounds, but opponents never match it
        params = GameParams(n=4, rounds=6, k=2.0)
        lineup = [kernel_strategy("rota", 2, 0, 1)] + [make_reference("alld")] * 3
        game = play_game(GameKind.PUBLIC_GOODS, params, lineup, seed=0)
        col = game.coop[:, 0].tolist()
        assert col[0] is True  # on duty, nothing to punish yet
        assert col[2] is False  # on duty but opponents broke the schedule


        # non-punishing control keeps the schedule
        lineup[0] = kernel_strategy("rota", 2, 0, 0)
        control = play_game(GameKind.PUBLIC_GOODS, params, lineup, seed=0)
        assert control.coop[:, 0].tolist() == [True, False, True, False, True, False]

    def test_stock_guardian_gives_up_below_guard(self):
        guardian = kernel_strategy("stock_guardian", 0.5)
        params = GameParams(n=2, rounds=5)
        # partner defects every round, draining the stock below half
        lineup = [guardian, make_reference("alld")]
        game = play_game(GameKind.COMMON_POOL, params, lineup, seed=0)
        frac = game.stocks[:-1] / params.capacity
        played = game.coop[:, 0]
        assert all(bool(c) == (f >= 0.5 - 1e-9) for c, f in zip(played, frac))

    def test_stock_guardian_refuses_other_games(self):
        from ndilemma import StrategyFault

        guardian = kernel_strategy("stock_guardian", 0.5)
        lineup = [guardian, make_reference("allc")]
        with pytest.raises(StrategyFault):
            play_game(GameKind.PUBLIC_GOODS, GameParams(n=2, rounds=2, k=1.5), lineup, seed=0)
        # the fault lands on the guardian group's first slot, not on slot 0
        allc = make_reference("allc")
        lineup = [allc, allc, guardian, guardian]
        with pytest.raises(StrategyFault) as caught:
            play_game(GameKind.PUBLIC_GOODS, GameParams(n=4, rounds=2, k=1.5), lineup, seed=0)
        fault = caught.value
        assert (fault.reason, fault.player, fault.round_index) == ("exception", 2, 0)
        assert "KernelError: stock_guardian requires a common-pool game" in str(fault)

    def test_every_family_has_scalar_and_batch(self):
        for family in FAMILIES.values():
            assert family.param_names
            assert callable(family.decide_one)
            assert callable(family.decide_batch)


class TestStrategyPool:
    def test_sampling_without_replacement_no_duplicates(self, alld_pool, rng):
        draw = alld_pool.sample_without_replacement(100, rng)
        assert len(set(draw.tolist())) == 100

    def test_oversampling_rejected(self, rng):
        pool = StrategyPool("tiny", Attitude.COLLECTIVE, (make_reference("allc"),))
        with pytest.raises(ValueError):
            pool.sample_without_replacement(2, rng)

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            StrategyPool("empty", Attitude.COLLECTIVE, ())
