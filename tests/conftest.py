"""Every test runs on cold caches: each lru_cache site of commsol is emptied
before it starts, so no test passes on a memo that an earlier one warmed."""

import pytest

from oracles import clear_every_cache


@pytest.fixture(autouse=True)
def cold_caches():
    clear_every_cache()
