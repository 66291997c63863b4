"""Named, reproducible random substreams.

All randomness in an experiment flows from one master seed.  Each component
(pool sampling, label oracle, pool-probability estimation, evaluation, ...)
gets its own substream derived from ``(seed, role, *extra)`` so that components
can be re-seeded independently and sweep cells are order-independent.
"""
from __future__ import annotations

import numpy as np
import numpy.random  # noqa: F401  numpy 2 loads it on first use; every call draws from it

# Stable numeric role codes; never renumber, traces depend on them.
_ROLES = {
    "pool": 1,
    "oracle": 2,
    "estimation": 3,
    "evaluation": 4,
    "passive": 5,
    "points": 6,
}


def substream(seed: int, role: str, *extra: int) -> np.random.Generator:
    """Return a Generator for a named substream of the master seed."""
    if role not in _ROLES:
        raise ValueError(f"unknown rng role {role!r}; expected one of {sorted(_ROLES)}")
    key = [int(seed) & 0xFFFFFFFFFFFFFFFF, _ROLES[role], *(int(x) for x in extra)]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(key)))
