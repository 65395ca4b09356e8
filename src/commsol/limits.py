"""Resource guard for the enumerative operations.

The default budget is generous for desk-scale inputs; COMMSOL_MAX_WORK
overrides it (an integer, roughly "elementary steps allowed").
"""

import os

from .errors import CommsolError, ResourceLimitError

DEFAULT_MAX_WORK = 20_000_000


def max_work() -> int:
    raw = os.environ.get("COMMSOL_MAX_WORK", str(DEFAULT_MAX_WORK))
    try:
        return int(raw)
    except ValueError:
        raise CommsolError(f"COMMSOL_MAX_WORK={raw!r} is not an integer") from None


def guard(estimate: int, context: str) -> None:
    """Raise ResourceLimitError if `estimate` exceeds the work budget."""
    cap = max_work()
    if estimate > cap:
        raise ResourceLimitError(
            f"{context}: estimated work {estimate} exceeds cap {cap} "
            f"(set COMMSOL_MAX_WORK to override)"
        )
