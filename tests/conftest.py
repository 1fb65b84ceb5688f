import random
import sys

import pytest

import u2factor  # loads every library module, so `memos` sees them all
from u2factor.field import GF, FieldSpec, rationals
from u2factor.sampling import random_sl


@pytest.fixture
def rng():
    return random.Random(20240817)


@pytest.fixture
def sample_sl():
    """Seeded sampler: sample_sl(field, n, count) -> list of SL_n matrices."""
    def go(field, n, count, seed=0):
        r = random.Random((seed, field.spec_string(), n, count).__repr__())
        return [random_sl(field, n, r) for _ in range(count)]
    return go


@pytest.fixture(scope="session")
def small_fields():
    return {q: GF(q) for q in (2, 3, 4, 5, 7, 8, 9, 11, 13)}


@pytest.fixture(scope="session")
def Q():
    return rationals()


@pytest.fixture
def table_calls(monkeypatch):
    """Every call of ``FieldSpec.elements``, ``nonzero_elements`` and
    ``squares`` made during the test, as (name, field), in order: the
    methods that build a table of the field's elements."""
    calls = []
    for name in ("elements", "nonzero_elements", "squares"):
        def spy(self, _name=name, _orig=getattr(FieldSpec, name)):
            calls.append((_name, self))
            return _orig(self)
        monkeypatch.setattr(FieldSpec, name, spy)
    return calls


@pytest.fixture
def memos():
    """Every lru_cache-wrapped function in the library's modules, by
    qualified name, cleared before the test (each starts cold)."""
    found = {}
    for name, mod in list(sys.modules.items()):
        if name == "u2factor" or name.startswith("u2factor."):
            for value in vars(mod).values():
                if callable(getattr(value, "cache_clear", None)):
                    found[f"{value.__module__}.{value.__qualname__}"] = value
    for memo in found.values():
        memo.cache_clear()
    return found
