"""Named, seedable random streams for reproducible experiments.

All randomness flows through the counter-based Philox 4x64-10 generator.
Stream splitting is by key: the 128-bit Philox key is ``[seed, stream_id]``
where ``stream_id`` indexes a fixed role table.  Two runs with the same seed
therefore produce identical draws per role, independently of draw order
across roles, and the scheme is reproducible from this description alone.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidShape
from .signals import _check_int

GENERATOR_NAME = "philox4x64-10"

# Fixed role table; new roles must be appended, never renumbered (id 2 is retired).
STREAMS = {
    "input": 0,
    "scheduling": 1,
    "query_input": 3,
    "query_scheduling": 4,
    "query_init": 5,
    "trials": 6,
}


def stream(seed: int, role: str) -> np.random.Generator:
    """Generator for the ``role`` named in ``STREAMS`` under ``seed``, a Philox key word:
    an integer, not a ``bool``, in ``[0, 2**64)``."""
    if (seed := _check_int("seed", seed, 0)) >= 2**64:
        raise InvalidShape(f"seed must be in [0, 2**64), got {seed}")
    key = np.array([seed, STREAMS[role]], np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def metadata(seed: int) -> dict:
    """Provenance record identifying the generator and splitting scheme."""
    return {
        "generator": GENERATOR_NAME,
        "seed": int(seed),
        "key_scheme": "key = [seed, stream_id]",
        "streams": dict(STREAMS),
    }
