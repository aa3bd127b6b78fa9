"""Seeded random-number-generation helpers.

All stochastic code in this library draws from a :class:`numpy.random.Generator`
passed explicitly (or created here from an integer seed).  Nothing reads the
process-global random state, so every experiment is reproducible from its
seed alone and independent components can be given independent streams.
"""

from __future__ import annotations

import hashlib
from typing import List, Union, cast

import numpy as np

from .errors import ConfigurationError

__all__ = ["RandomState", "derive_seed", "ensure_rng", "spawn"]

#: Anything accepted where a random source is expected.
RandomState = Union[None, int, np.random.Generator]


def ensure_rng(seed: RandomState = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for *seed*.

    - ``None`` → a fresh, OS-entropy-seeded generator;
    - ``int`` → a deterministic generator seeded with that value (a
      negative one is a :class:`~repro.errors.ConfigurationError`);
    - an existing ``Generator`` → returned unchanged.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, (int, np.integer)) and seed < 0:
        raise ConfigurationError(f"seed must be nonnegative, got {seed}")
    return np.random.default_rng(seed)


def spawn(rng: np.random.Generator, n: int) -> List[np.random.Generator]:
    """Split *rng* into *n* statistically independent child generators.

    Used when a simulation hands separate components (noise model, workload
    generator, device behaviour) their own streams so that adding draws to
    one component does not perturb the others.
    """
    if n < 0:
        raise ValueError(f"cannot spawn a negative number of generators: {n}")
    seed_seq = cast(np.random.SeedSequence, rng.bit_generator.seed_seq)
    return [np.random.default_rng(s) for s in seed_seq.spawn(n)]


def _path_part(part: Union[int, str]) -> int:
    """Map one *path* component to a spawn-key integer.

    Integers pass through unchanged (so every historical ``derive_seed``
    call keeps its exact value); strings hash through SHA-256 to a stable
    32-bit key, letting call sites name streams by entity — a charger id,
    a request id, ``"shard"`` — instead of inventing integer namespaces.
    """
    if isinstance(part, str):
        digest = hashlib.sha256(part.encode("utf-8")).digest()
        return int.from_bytes(digest[:4], "big")
    return int(part)


def derive_seed(root: int, *path: Union[int, str]) -> int:
    """Derive a child seed from *root* along a spawn-key *path*.

    Uses :class:`numpy.random.SeedSequence` spawn keys, the same mechanism
    :func:`spawn` relies on, so children are statistically independent of
    each other and of the root stream.  Unlike drawing child seeds from a
    shared generator, the result depends only on ``(root, path)`` — never
    on how many seeds were derived before — which is what lets experiment
    tasks run in any order (or in parallel) and still see identical
    randomness.

    Path components may be integers (the historical form, unchanged) or
    strings, which are hashed to stable 32-bit keys — the basis of the
    *keyed* fault/workload streams (see docs/SHARDING.md): deriving per
    entity (``derive_seed(root, "cancel", request_id)``) instead of from
    shared-stream order makes any *subset* of the drawn events independent
    of which other entities exist.
    """
    ss = np.random.SeedSequence(int(root), spawn_key=tuple(_path_part(p) for p in path))
    return int(ss.generate_state(1, dtype=np.uint32)[0])
