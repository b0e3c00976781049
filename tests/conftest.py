import pkgutil
from importlib import import_module

import pytest

import nilcone

# Every lru_cache of the package, gathered once at import, before any test
# patches a module: a patched name no longer leads to the memo behind it.
MEMOS = [
    value
    for info in pkgutil.iter_modules(nilcone.__path__)
    for value in vars(import_module(f"nilcone.{info.name}")).values()
    if hasattr(value, "cache_clear")
]


def clear_all_memos() -> None:
    for memo in MEMOS:
        memo.cache_clear()


@pytest.fixture
def clear_memos():
    """Empty every memo of the package before and after the test, so that a
    patched route is neither hidden by a memoised value nor left behind in
    one; the test receives the emptying function for use in between."""
    clear_all_memos()
    yield clear_all_memos
    clear_all_memos()
