import numpy as np
import pytest

from ndilemma import Attitude, Strategy, StrategyPool, make_reference
from ndilemma.engine import MemberTable, build_groups


def reference_pool(kind: str, count: int, tag: str, attitude: Attitude, **kwargs) -> StrategyPool:
    """Pool of `count` copies of one reference strategy with indexed labels."""
    base = make_reference(kind, **kwargs)
    members = tuple(
        Strategy(f"{base.label}#{i:03d}", base.origin, base.decide, base.kernel)
        for i in range(count)
    )
    return StrategyPool(gene_tag=tag, attitude=attitude, members=members)


def lineup_groups(lineup: list[Strategy]):
    """``build_groups`` over a flat slot-major strategy list, one table
    member per slot."""
    return build_groups(np.arange(len(lineup)), MemberTable.compile(lineup))


@pytest.fixture
def alld_pool():
    return reference_pool("alld", 512, "base", Attitude.EXPLOITATIVE)


@pytest.fixture
def allc_pool():
    return reference_pool("allc", 512, "base", Attitude.COLLECTIVE)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
