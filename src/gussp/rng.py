"""Seed derivation and sampling helpers.

Every stochastic component in the package draws from a ``random.Random``
seeded through :func:`derive_seed`, so runs are reproducible across
processes and platforms (no dependence on ``PYTHONHASHSEED``).
"""

from __future__ import annotations

import hashlib
import random
from typing import Sequence, Tuple, TypeVar

T = TypeVar("T")


def derive_seed(*parts) -> int:
    """Stable 64-bit seed from a tuple of printable parts."""
    text = "\x1f".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def make_rng(*parts) -> random.Random:
    return random.Random(derive_seed(*parts))


def sample_row(rows: Sequence[Tuple[T, float]], rng: random.Random) -> T:
    """Sample an outcome from (item, probability) pairs.  An entry with ``p
    == 0`` is never drawn, so dropping such entries draws the same item."""
    u = rng.random()
    acc = 0.0
    for item, p in rows:
        acc += p
        if u < acc:
            return item
    # rounding left the total at or below u: the last outcome that can happen
    return next(item for item, p in reversed(rows) if p > 0.0)
