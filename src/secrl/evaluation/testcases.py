"""Frozen, seeded benchmark scenarios.

Two families per plant: a long stochastic profile (grid load) or stepwise
reference profile (motor) for transient behavior, and 20-segment stepwise
cases for steady-state scoring.  Segment values come from seeded stratified
sampling over the admissible set, giving representative coverage without a
density-matching algorithm.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .. import ConfigurationError
from ..checkpoint import READ_ERRORS, atomic_write
from ..envs.grid import R_LOAD_MAX, R_LOAD_MIN, seeded_load_series
from ..seeding import STREAM_ENV, derive_rng

GRID_LOAD_PROFILE = "grid-load-profile"
MOTOR_REFERENCE_PROFILE = "motor-reference-profile"
GRID_STEADYSTATE = "grid-steadystate"
MOTOR_STEADYSTATE = "motor-steadystate"

KINDS = (GRID_LOAD_PROFILE, MOTOR_REFERENCE_PROFILE, GRID_STEADYSTATE, MOTOR_STEADYSTATE)


@dataclass
class TestCase:
    __test__ = False  # not a pytest item despite the name

    kind: str
    seed: int
    duration: int
    segment_length: int        # 0 for non-stepwise cases
    payload: np.ndarray        # (duration,) loads or (duration, 2) references

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigurationError(f"unknown test case kind {self.kind!r}")
        if len(self.payload) != self.duration:
            raise ConfigurationError("payload length must equal duration")
        if self.segment_length and self.duration % self.segment_length != 0:
            raise ConfigurationError("duration must divide into whole segments")
        p = self.payload
        if self.kind in (GRID_LOAD_PROFILE, GRID_STEADYSTATE):
            if p.ndim != 1 or not (np.isfinite(p).all() and (p > 0).all()):
                raise ConfigurationError("grid test case payload must be 1-D finite positive loads")
        elif p.shape != (self.duration, 2) or not np.isfinite(p).all():
            raise ConfigurationError(
                "motor test case payload must be (duration, 2) finite references")

    @property
    def case_id(self) -> str:
        return f"{self.kind}-seed{self.seed}"

    def save(self, path: str | Path) -> None:
        with atomic_write(path, suffix=".npz") as fh:
            np.savez_compressed(
                fh,
                payload=self.payload,
                meta=json.dumps({
                    "kind": self.kind, "seed": self.seed,
                    "duration": self.duration, "segment_length": self.segment_length,
                    "version": 1,
                }),
            )

    @classmethod
    def load(cls, path: str | Path) -> "TestCase":
        """The saved case; an unreadable or malformed file raises
        ConfigurationError."""
        try:
            with np.load(path, allow_pickle=False) as data:
                meta = json.loads(str(data["meta"]))
                return cls(
                    kind=meta["kind"], seed=meta["seed"], duration=meta["duration"],
                    segment_length=meta["segment_length"], payload=data["payload"],
                )
        except READ_ERRORS as exc:
            raise ConfigurationError(f"cannot read test case {path}: {exc}") from exc


def gen_grid_testcase(seed: int, steps: int = 100_000, dt: float = 1e-4) -> TestCase:
    """Load profile from the live stochastic process at control period
    `dt`, frozen thereafter."""
    if steps < 1:
        raise ConfigurationError("steps must be >= 1")
    return TestCase(GRID_LOAD_PROFILE, seed, steps, 0, seeded_load_series(seed, steps, dt))


def _stratified_1d(rng: np.random.Generator, lo: float, hi: float, n: int) -> np.ndarray:
    """One sample per equal-width stratum, order shuffled."""
    edges = np.linspace(lo, hi, n + 1)
    vals = edges[:-1] + rng.uniform(size=n) * (edges[1:] - edges[:-1])
    rng.shuffle(vals)
    return vals


def _stratified_disc(rng: np.random.Generator, radius: float, n: int) -> np.ndarray:
    """Latin-hypercube-style samples over a disc: area (radius^2) and angle
    strata shuffled independently."""
    r2 = _stratified_1d(rng, 0.0, radius ** 2, n)
    phi = _stratified_1d(rng, 0.0, 2.0 * np.pi, n)
    r = np.sqrt(r2)
    return np.stack([r * np.cos(phi), r * np.sin(phi)], axis=1)


def gen_steadystate_testcase(
    kind: str,
    seed: int,
    segments: int = 20,
    segment_length: int = 500,
    motor_ref_radius: float = 0.9 * 20.0,
) -> TestCase:
    """Stepwise-constant case: `segments` values held `segment_length` steps."""
    rng = derive_rng(seed, STREAM_ENV)
    if kind in (GRID_STEADYSTATE, "grid"):
        kind, values = GRID_STEADYSTATE, _stratified_1d(rng, R_LOAD_MIN, R_LOAD_MAX, segments)
    elif kind in (MOTOR_STEADYSTATE, "motor"):
        kind, values = MOTOR_STEADYSTATE, _stratified_disc(rng, motor_ref_radius, segments)
    else:
        raise ConfigurationError(f"unknown steady-state kind {kind!r}")
    payload = np.repeat(values, segment_length, axis=0)
    return TestCase(kind, seed, segments * segment_length, segment_length, payload)


def gen_motor_profile(
    seed: int,
    steps: int = 10_000,
    segment_length: int = 500,
    motor_ref_radius: float = 0.9 * 20.0,
) -> TestCase:
    """Stepwise reference profile for transient scoring (full-trace mean):
    the references of the motor steady-state case of `seed` with
    steps / segment_length segments."""
    if steps % segment_length != 0:
        raise ConfigurationError("steps must divide into whole segments")
    case = gen_steadystate_testcase(MOTOR_STEADYSTATE, seed, steps // segment_length,
                                    segment_length, motor_ref_radius)
    return TestCase(MOTOR_REFERENCE_PROFILE, seed, steps, segment_length, case.payload)
