"""Shared test helpers."""

import pytest


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(module, *names): a dict counting the calls of each named
    function of the module from here on (calls from inside the module too,
    since they look the name up in it)."""
    def install(module, *names):
        calls = dict.fromkeys(names, 0)

        def counted(name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        for name in names:
            monkeypatch.setattr(module, name, counted(name))
        return calls
    return install
