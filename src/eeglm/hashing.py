"""Stable 64-bit FNV-1a string hashing (platform- and run-independent)."""

from __future__ import annotations

from functools import lru_cache

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK = 0xFFFFFFFFFFFFFFFF
# words each memoized hash remembers; bounded because profile texts carry
# per-sample numbers, so the distinct words grow with the corpus
WORD_CACHE_SIZE = 2048


def fnv1a_64(text: str) -> int:
    """Hash a string to an unsigned 64-bit integer."""
    h = _FNV_OFFSET
    for byte in text.encode("utf-8"):
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK
    return h


@lru_cache(maxsize=WORD_CACHE_SIZE)
def word_hash(word: str) -> int:
    """`fnv1a_64(word)`, remembered for the most recently hashed words."""
    return fnv1a_64(word)
