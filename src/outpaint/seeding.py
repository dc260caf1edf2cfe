"""Deterministic random streams derived from a single run seed.

Every stage that needs randomness asks for its own named stream; no code
reads ambient entropy.  Streams use the counter-based Philox generator so
draws are reproducible across platforms and numpy versions.  ``hashlib`` is
imported on the first stream, not with the package, so a run that draws
nothing (a propagate run from files) never loads OpenSSL.
"""

from __future__ import annotations

import numpy as np


def _stream_key(name: str) -> int:
    import hashlib

    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "little")


def seeded_generator(seed: int, stream: str) -> np.random.Generator:
    """A Philox generator for ``stream``, fully determined by (seed, stream)."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(_stream_key(stream),))
    return np.random.Generator(np.random.Philox(ss))
