"""Deterministic derivation of independent random streams from one run seed.

Every consumer of randomness gets its own numpy Generator, derived from the
run seed plus a fixed stream id.  Toggling the integral-action augmentation
(which changes how often the exploration stream is drawn) therefore never
shifts environment, load, or measurement-noise randomness.
"""

from __future__ import annotations

import numpy as np

# Fixed stream ids; part of the reproducibility contract.
STREAM_INIT = 0         # network weight/bias initialization
STREAM_EXPLORATION = 1  # OU action noise
STREAM_ENV = 2          # environment resets / reference generation
STREAM_LOAD = 3         # grid load stochastic process
STREAM_NOISE = 4        # measurement noise
STREAM_REPLAY = 5       # replay-buffer mini-batch sampling


def derive_rng(seed: int, stream: int) -> np.random.Generator:
    """Generator for (seed, stream); same pair always yields the same stream."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(stream),))
    return np.random.Generator(np.random.PCG64(ss))

