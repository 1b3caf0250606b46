"""Shared fixtures: the paper's running dependencies and instances.

Also the cache-isolation hook: every test starts with every cache tier
cold (chase LRU, analysis memo, intern traffic counters) and with disk
persistence force-disabled, so no test observes another test's warm state
and no test ever touches a developer's real ``REPRO_CACHE_DIR``.  Tests
that exercise persistence opt back in with ``repro.cache.configure(tmp)``
(the next test's setup re-disables it).  A plain pytest hook -- not an
autouse fixture -- so Hypothesis's function-scoped-fixture health check
stays quiet for ``@given`` tests.
"""

from __future__ import annotations

import os

import pytest

import repro.cache
from repro import (
    parse_egd,
    parse_instance,
    parse_nested_tgd,
    parse_so_tgd,
    parse_tgd,
)


def pytest_runtest_setup(item: pytest.Item) -> None:
    os.environ.pop("REPRO_CACHE_DIR", None)
    repro.cache.configure(None)
    repro.cache.clear_all_caches()


@pytest.fixture
def sigma_star():
    """The four-part nested tgd (*) of Section 2 (labels sigma_1 .. sigma_4)."""
    return parse_nested_tgd(
        "S1(x1) -> exists y1 . ("
        "  (S2(x2) -> R2(y1, x2))"
        "  & (S3(x1, x3) -> R3(y1, x3) & (S4(x3, x4) -> exists y2 . R4(y2, x4)))"
        ")",
        name="sigma_star",
    )


@pytest.fixture
def intro_nested():
    """The introduction's nested tgd: S(x1,x2) -> exists y (R(y,x2) & (S(x1,x3) -> R(y,x3)))."""
    return parse_nested_tgd(
        "S(x1, x2) -> exists y . (R(y, x2) & (S(x1, x3) -> R(y, x3)))",
        name="intro",
    )


@pytest.fixture
def tau_310():
    """The nested tgd tau of Example 3.10."""
    return parse_nested_tgd(
        "S1(x1) -> exists y . (S2(x2) -> R(x2, y))", name="tau"
    )


@pytest.fixture
def tau_prime_310():
    """The s-t tgd tau' of Example 3.10 (does not imply tau)."""
    return parse_tgd("S2(x2) -> exists z . R(x2, z)", name="tau_prime")


@pytest.fixture
def tau_dprime_310():
    """The s-t tgd tau'' of Example 3.10 (implies tau)."""
    return parse_tgd("S1(x1) & S2(x2) -> R(x2, x1)", name="tau_dprime")


@pytest.fixture
def so_tgd_48():
    """The plain SO tgd of Example 4.8: S(x,y) -> R(f(x),f(y)) & R(f(y),f(x))."""
    return parse_so_tgd("S(x,y) -> R(f(x), f(y)) & R(f(y), f(x))", name="ex48")


@pytest.fixture
def so_tgd_413():
    """The plain SO tgd of Proposition 4.13: S(x,y) -> R(f(x),f(y))."""
    return parse_so_tgd("S(x,y) -> R(f(x), f(y))", name="prop413")


@pytest.fixture
def so_tgd_414():
    """The plain SO tgd of Example 4.14."""
    return parse_so_tgd("S(x,y) & Q(z) -> R(f(z,x), f(z,y), g(z))", name="ex414")


@pytest.fixture
def so_tgd_415():
    """The plain SO tgd of Example 4.15 (equivalent to a nested tgd)."""
    return parse_so_tgd("S(x,y) & Q(z) -> R(f(x,y,z), g(z), x)", name="ex415")


@pytest.fixture
def nested_415():
    """The nested tgd of Example 4.15 equivalent to the SO tgd above."""
    return parse_nested_tgd(
        "Q(z) -> exists u . (S(x,y) -> exists v . R(v, u, x))", name="nested415"
    )


@pytest.fixture
def sigma_53():
    """The nested tgd of Example 5.3."""
    return parse_nested_tgd(
        "Q(z) -> exists y . (P1(z, x1) & P2(z, x2) -> R(y, x1, x2))", name="ex53"
    )


@pytest.fixture
def egd_53():
    """The source egd of Example 5.3: P1 is functional in its first argument."""
    return parse_egd("P1(z, x1) & P1(z, xp) -> x1 = xp", name="ex53_egd")


@pytest.fixture
def small_source():
    return parse_instance("S(a, b), S(a, c)")
