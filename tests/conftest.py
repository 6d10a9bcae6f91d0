"""Fixtures shared by the suite."""

import pytest

from supercong import exactnum


@pytest.fixture(autouse=True)
def empty_layer_store():
    """Start every test with an empty per-prime store: no test reads layers
    kept by an earlier one."""
    exactnum._layers.clear()


@pytest.fixture
def spy(monkeypatch):
    """spy(module, name) -> calls: replace module.name by a wrapper that
    appends the arguments of each call to `calls`.  A kept layer
    (`exactnum.prime_layer`) has its body wrapped and kept again, so
    `calls` lists its builds, not its reads."""

    def install(module, name):
        calls = []
        target = getattr(module, name)
        body = getattr(target, "__wrapped__", target)

        def recorded(*args):
            calls.append(args)
            return body(*args)

        monkeypatch.setattr(module, name, recorded if body is target else exactnum.prime_layer(recorded))
        return calls

    return install
