"""Deterministic random-stream derivation.

A master seed plus an integer path (domain, repetition, ...) maps to an
independent counter-based generator.  Streams depend only on the pair
(seed, path), never on creation order, so repetitions may run in any
order or in parallel and still reproduce bit-identical results; the
`protocol` command splits its trials across CPUs with
`fileio.write_csv_parts`, and each part derives its own trials' streams.
"""

from __future__ import annotations

import numpy as np

# Domain tags keep unrelated experiment stages on disjoint stream paths.
# The values are part of every stream's path: changing one changes outputs.
DOMAIN_PROTOCOL = 1
DOMAIN_SCALING = 3
DOMAIN_IMAGE = 4


def derive(seed: int, *path: int) -> np.random.Generator:
    """Return the generator for stream `path` under `seed`."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(ss))
