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
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

__all__ = ["RandomStream"]


def _tag_to_int(tag: int | str) -> int:
    if isinstance(tag, str):
        return zlib.crc32(tag.encode("utf-8"))
    tag = int(tag)
    if tag < 0:
        raise ValueError(f"stream tags must be non-negative, got {tag}")
    return tag


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
        return np.random.SeedSequence(self.entropy, spawn_key=self.path)

    def generator(self) -> np.random.Generator:
        """A fresh SFC64 generator positioned at the stream start (see the
        module docstring for why SFC64)."""
        return np.random.Generator(np.random.SFC64(self._seed_sequence()))

    def seed64(self) -> int:
        """A 64-bit seed word derived from this stream (for raw kernels)."""
        return int(self._seed_sequence().generate_state(1, np.uint64)[0])
