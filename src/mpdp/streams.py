"""Deterministic derivation of independent random streams from a root seed.

Every source of randomness in this package is a pure function of a root
seed plus a derivation path, so that per-trial and per-party streams can
be reproduced in isolation.  Derivation uses ``numpy.random.SeedSequence``
spawn keys (a documented, stable hashing scheme) and numpy's SFC64 bit
generator.

SFC64 is the fastest of numpy's bit generators for the normal and uniform
draws a trial spends its randomness on (about 0.7x Philox's time for
normals, 0.5-0.6x for uniforms).  Nothing here uses Philox's counter
features (``advance``, ``jumped``): streams are told apart by the
SeedSequence that seeds each one's state, and SFC64's built-in counter
gives every stream a period of at least 2**64 draws.

A path element may be an integer (e.g. a party index or trial index) or a
short string tag; string tags are mapped to integers with CRC-32 so that
``child("mixing")`` is stable across processes and platforms.

A stream's SeedSequence is built from the uint32 words numpy assembles
from ``SeedSequence(entropy, spawn_key=path)``: the root seed's 32-bit
words, little-endian, zero-padded to the 4-word pool when the path is
non-empty, then each path tag's words.  The pool, and so every draw and
``seed64()``, is the same as from (entropy, spawn_key); what is skipped is
numpy's per-element coercion of the key, about half of a generator's
construction time.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

__all__ = ["RandomStream"]

# SeedSequence's pool size in 32-bit words: a root seed shorter than this
# is zero-padded to it before the spawn key's words
_POOL_WORDS = 4


def _tag_to_int(tag: int | str) -> int:
    if isinstance(tag, str):
        return zlib.crc32(tag.encode("utf-8"))
    tag = int(tag)
    if tag < 0:
        raise ValueError(f"stream tags must be non-negative, got {tag}")
    return tag


def _words(value: int) -> list[int]:
    """The little-endian 32-bit words of a non-negative integer ([0] for 0)."""
    words = [value & 0xFFFFFFFF]
    while value := value >> 32:
        words.append(value & 0xFFFFFFFF)
    return words


@dataclass(frozen=True)
class RandomStream:
    """An immutable handle on one derived random stream.

    ``entropy`` is the root seed; ``path`` is the derivation path.  Two
    streams with different paths are statistically independent; equal
    (entropy, path) pairs always produce identical output.
    """

    entropy: int
    path: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.entropy < 0:
            raise ValueError("root seed must be non-negative")

    def child(self, *tags: int | str) -> "RandomStream":
        """Derive a sub-stream; tags extend the derivation path."""
        return RandomStream(self.entropy, self.path + tuple(_tag_to_int(t) for t in tags))

    def _seed_sequence(self) -> np.random.SeedSequence:
        """``SeedSequence(entropy, spawn_key=path)``'s pool, from its
        assembled entropy words (see the module docstring)."""
        words = _words(self.entropy)
        if self.path:
            words += [0] * (_POOL_WORDS - len(words))
            for tag in self.path:
                words += _words(tag)
        return np.random.SeedSequence(np.array(words, dtype=np.uint32))

    def generator(self) -> np.random.Generator:
        """A fresh SFC64 generator positioned at the stream start (see the
        module docstring for why SFC64)."""
        return np.random.Generator(np.random.SFC64(self._seed_sequence()))

    def seed64(self) -> int:
        """A 64-bit seed word derived from this stream (for raw kernels)."""
        return int(self._seed_sequence().generate_state(1, np.uint64)[0])
