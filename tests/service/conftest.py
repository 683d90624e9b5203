"""Shared fixtures for the service tests."""

import sqlite3

import pytest


class FailingConnection:
    """A sqlite connection whose ``fail_at``-th ``execute`` (counted
    from wrapping, 1-based) raises; every other call is passed on."""

    def __init__(self, db: sqlite3.Connection, fail_at: int) -> None:
        self._db = db
        self._left = fail_at

    def execute(self, *args):
        self._left -= 1
        if self._left == 0:
            raise sqlite3.OperationalError("disk I/O error (injected)")
        return self._db.execute(*args)

    def __enter__(self):
        return self._db.__enter__()

    def __exit__(self, *exc):
        return self._db.__exit__(*exc)

    def __getattr__(self, name):
        return getattr(self._db, name)


@pytest.fixture
def fail_nth_execute():
    """``arm(store, n)``: the store's n-th ``execute`` from now raises."""

    def arm(store, n: int) -> None:
        store._db = FailingConnection(store._db, n)

    return arm
