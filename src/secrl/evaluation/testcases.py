"""Frozen, seeded benchmark scenarios, and the table of the two plants.

Two families per plant: a long stochastic profile (grid load) or stepwise
reference profile (motor) for transient behavior, and 20-segment stepwise
cases for steady-state scoring.  Segment values come from seeded stratified
sampling over the admissible set, giving representative coverage without a
density-matching algorithm.  ``PLANTS`` holds every fact in which the two
plants differ outside their own modules; no other code branches on a plant.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .. import ConfigurationError
from ..baselines.grid_cascade import GridCascadePolicy, tune_grid_cascade
from ..baselines.pi import MotorPiPolicy
from ..checkpoint import _read_into, _reading, atomic_write
from ..envs.grid import R_LOAD_MAX, R_LOAD_MIN, GridEnv, GridParams, seeded_load_series
from ..envs.motor import MotorEnv, MotorParams
from ..seeding import STREAM_ENV, derive_rng

GRID_LOAD_PROFILE = "grid-load-profile"
MOTOR_REFERENCE_PROFILE = "motor-reference-profile"
GRID_STEADYSTATE = "grid-steadystate"
MOTOR_STEADYSTATE = "motor-steadystate"


@dataclass(frozen=True)
class Plant:
    """What config, scoring, test cases and the run path know of one plant."""

    name: str
    env_cls: type
    params_cls: type         # its parameters: one env.<name>.<field> config key per field
    hi: dict                 # upper bounds of those keys, by field
    set_schedule: Callable   # (env, test-case payload): replay a frozen series
    ref_key: str             # step-info keys of the reference and the measurement
    meas_key: str
    limit: str               # parameter field the metrics normalize by
    steady_state_skip: int   # steps dropped at the start of each steady-state segment
    payload: tuple           # a test case's payload shape per step: () loads, (2,) references
    positive: bool           # whether payload values must exceed 0
    sample: Callable         # (rng, segments, motor reference radius) -> steady-state values
    profile: Callable        # (cfg, seed, steps or None, motor reference radius) -> transient case
    cases: tuple[str, str]   # test-case kinds: transient profile, steady state
    pi: Callable             # (plant params, tuned gains or None) -> PI controller
    tune: Callable | None    # (plant params, seed=, steps=) -> (gains, report); None: untuned


PLANTS = {
    "grid": Plant(
        "grid", GridEnv, GridParams, hi={}, set_schedule=GridEnv.set_load_schedule,
        ref_key="v_ref", meas_key="v_meas", limit="v_lim", steady_state_skip=100,
        payload=(), positive=True,
        sample=lambda rng, n, radius: _stratified_1d(rng, R_LOAD_MIN, R_LOAD_MAX, n),
        profile=lambda cfg, seed, steps, radius: gen_grid_testcase(
            seed, steps or cfg["experiment.grid_transient_steps"], cfg["train.sampling_time"]),
        cases=(GRID_LOAD_PROFILE, GRID_STEADYSTATE), pi=GridCascadePolicy, tune=tune_grid_cascade),
    "motor": Plant(
        "motor", MotorEnv, MotorParams, set_schedule=MotorEnv.set_reference_schedule,
        hi={"reference_hold_prob": 0.999999, "reference_radius": 1.0},
        ref_key="i_ref", meas_key="i_meas", limit="i_lim", steady_state_skip=200,
        payload=(2,), positive=False,
        sample=lambda rng, n, radius: _stratified_disc(rng, radius, n),
        profile=lambda cfg, seed, steps, radius: gen_motor_profile(
            seed, steps or cfg["experiment.motor_profile_steps"],
            cfg["experiment.segment_length"], radius),
        cases=(MOTOR_REFERENCE_PROFILE, MOTOR_STEADYSTATE),
        pi=lambda params, gains: MotorPiPolicy(params), tune=None),
}
# The plant of each test-case kind.
CASE_PLANT = {kind: plant for plant in PLANTS.values() for kind in plant.cases}


def case_plant(kind: str) -> Plant:
    """The plant of test-case kind `kind`; ConfigurationError for another kind."""
    if not isinstance(kind, str) or kind not in CASE_PLANT:
        raise ConfigurationError(f"unknown test case kind {kind!r}")
    return CASE_PLANT[kind]


def _meta_plant(kind: str, seed: int, duration: int, segment_length: int) -> Plant:
    """The plant of a test case with this meta; ConfigurationError for an
    unknown kind or a count that is no integer in its range."""
    for name, value, least in (("seed", seed, 0), ("duration", duration, 1),
                               ("segment_length", segment_length, 0)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
            raise ConfigurationError(f"{name} must be an integer >= {least}, got {value!r}")
    return case_plant(kind)


@dataclass
class TestCase:
    __test__ = False  # not a pytest item despite the name

    kind: str
    seed: int
    duration: int
    segment_length: int        # 0 for non-stepwise cases
    payload: np.ndarray        # (duration,) loads or (duration, 2) references

    def __post_init__(self):
        plant = _meta_plant(self.kind, self.seed, self.duration, self.segment_length)
        p = self.payload
        if self.segment_length and self.duration % self.segment_length != 0:
            raise ConfigurationError("duration must divide into whole segments")
        shape = (self.duration, *plant.payload)
        if p.shape != shape or not np.isfinite(p).all() or (plant.positive and not (p > 0).all()):
            raise ConfigurationError(f"{plant.name} test case payload must be {shape} finite "
                                     f"{'positive ' if plant.positive else ''}values")

    @property
    def steady_state(self) -> bool:
        return self.kind == CASE_PLANT[self.kind].cases[1]

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
        with _reading(path, "test case") as (meta, data):
            meta = {key: meta[key] for key in ("kind", "seed", "duration", "segment_length")}
            shape = (meta["duration"], *_meta_plant(**meta).payload)
            # The directory's size bounds the payload before it is allocated.
            if data.getinfo("payload.npy").file_size < 8 * np.prod(shape):
                raise ConfigurationError(f"payload holds fewer than {shape[0]} steps")
            payload = np.empty(shape)
            _read_into(data, "payload", payload)
            return cls(**meta, payload=payload)


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
    """Stepwise-constant case of steady-state kind `kind`, or of the plant
    named `kind`: `segments` values held `segment_length` steps."""
    plant = PLANTS.get(kind) or CASE_PLANT.get(kind)
    if plant is None or kind == plant.cases[0]:
        raise ConfigurationError(f"unknown steady-state kind {kind!r}")
    values = plant.sample(derive_rng(seed, STREAM_ENV), segments, motor_ref_radius)
    payload = np.repeat(values, segment_length, axis=0)
    return TestCase(plant.cases[1], seed, segments * segment_length, segment_length, payload)


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
