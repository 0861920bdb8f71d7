"""Counter-based random number generation with named independent streams.

Every stochastic component of the package (weight init, data generation,
label corruption, epoch shuffling) draws from its own Philox generator,
keyed by ``(seed, stream tag)``.  Philox is counter-based, so two streams
with different keys are statistically independent and a given stream is
reproducible regardless of how much randomness other components consumed.
"""

import numpy as np

# Stream tags.  Each independent consumer of randomness gets its own tag so
# that streams never alias even when built from the same user-facing seed.
STREAM_VERTICES = 1
STREAM_TRAIN = 2
STREAM_TEST = 3
STREAM_NOISE = 4
STREAM_INIT = 5
STREAM_SHUFFLE = 6

_MASK64 = (1 << 64) - 1


def check_seed(seed: int) -> None:
    """Raise ValueError unless seed lies in [0, 2**64), the user-facing seeds Philox is keyed by."""
    if not 0 <= int(seed) < 2**64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")


def make_rng(seed: int, stream: int) -> "np.random.Generator":
    """Return a Philox generator keyed by ``(seed, stream)``.

    Args:
        seed: non-negative user-facing seed (< 2**64).
        stream: stream tag, one of the ``STREAM_*`` constants (any
            non-negative integer < 2**64 is accepted).
    """
    check_seed(seed)
    if not 0 <= int(stream) < 2**64:
        raise ValueError(f"stream must be in [0, 2**64), got {stream}")
    return np.random.Generator(np.random.Philox(key=[int(seed), int(stream)]))


def derive_seed(seed: int, index: int) -> int:
    """Derive a child seed from ``(seed, index)`` via one splitmix64 round.

    A sweep keys a run's label noise by ``derive_seed(seed, eta_index)``, so
    reordering its losses or seeds keeps every run's noise, while an eta's
    noise follows its position in the eta list: reordering the etas, or
    adding or dropping one ahead of it, gives it other corrupted labels.
    """
    z = (int(seed) + (int(index) + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64
