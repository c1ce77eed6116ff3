"""Deterministic seed derivation.

All randomness in the toolkit flows from one master seed. Stage seeds are
derived as sha256("master|part|part|...") truncated to 63 bits, so any
stage can be re-run in isolation and reproduce its output exactly.
"""

from __future__ import annotations

import hashlib


def derive_seed(master: int, *parts) -> int:
    """Derive a child seed from the master seed and a label path."""
    key = "|".join([str(int(master))] + [str(p) for p in parts])
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") & 0x7FFFFFFFFFFFFFFF
