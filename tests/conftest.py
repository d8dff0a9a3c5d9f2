"""Shared fixtures: the four standard small-field configurations, and
a fresh remark case set for every test."""

import pytest

from hermline import harness, make_field


@pytest.fixture(autouse=True)
def fresh_cases():
    """Clear the cached case set before and after each test.

    A case set fixes its mode and table when it is built, so one built
    under a monkeypatched limit or table must not reach another test.
    """
    harness._cases.cache_clear()
    yield
    harness._cases.cache_clear()


@pytest.fixture(scope="session")
def f2():
    return make_field(2)


@pytest.fixture(scope="session")
def f3():
    return make_field(3)


@pytest.fixture(scope="session")
def f4():
    return make_field(2, 2, "frobenius")


@pytest.fixture(scope="session")
def f9():
    return make_field(3, 2, "frobenius")
