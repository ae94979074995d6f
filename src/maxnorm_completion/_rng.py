"""Seeded random streams.

All randomness in the package flows through PCG64 (numpy's default 64-bit
generator) seeded via SeedSequence.  Distinct purposes (index sampling,
noise, solver init, ...) get distinct spawn keys so that, e.g.,
changing the noise model never perturbs which indices are drawn.
"""

import numpy as np

# Stream ids; fixed forever so seeded runs stay reproducible.  Id 3 is
# unused; the other ids keep their values.
SAMPLING = 0
NOISE = 1
INIT = 2
PACKING = 4
RADEMACHER = 5
GROUND_TRUTH = 6


def stream_rng(seed: int, stream: int) -> np.random.Generator:
    """PCG64 generator for (seed, stream), independent across streams."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream,)))


def derive_seed(base_seed: int, *key: int) -> int:
    """Deterministic 63-bit child seed for a trial identified by `key`."""
    state = np.random.SeedSequence(base_seed, spawn_key=tuple(key)).generate_state(1)[0]
    return int(state) & 0x7FFFFFFFFFFFFFFF
