"""Scoring: undiscounted mean root error and steady-state windowed means.

All metrics are recomputed from logged references and measurements with
discount 0, independent of whatever reward shaping ran during training;
action penalties never enter reported numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .. import ConfigurationError
from ..checkpoint import write_csv
from ..envs.base import root_error_sum


@dataclass
class Trajectory:
    """Per-step rollout record for one evaluation episode."""

    kind: str                 # 'grid' or 'motor'
    limit: float              # v_lim or i_lim used for normalization
    reference: np.ndarray     # (N, d)
    measured: np.ndarray      # (N, d)
    raw_action: np.ndarray    # (N, m or 2m)
    applied_action: np.ndarray  # (N, m)
    integrator: np.ndarray | None = None  # (N, m) when augmented
    violations: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        if self.kind not in ("grid", "motor"):
            raise ConfigurationError(f"unknown trajectory kind {self.kind!r}")
        if self.reference.shape != self.measured.shape:
            raise ConfigurationError("reference/measured shape mismatch")

    def __len__(self) -> int:
        return len(self.reference)

    def to_csv(self, path: str | Path) -> None:
        d = self.reference.shape[1]
        m = self.applied_action.shape[1]
        raw_w = self.raw_action.shape[1]
        header = (
            ["k"]
            + [f"ref_{i}" for i in range(d)]
            + [f"meas_{i}" for i in range(d)]
            + [f"raw_{i}" for i in range(raw_w)]
            + [f"applied_{i}" for i in range(m)]
            + [f"integrator_{i}" for i in range(m)]
            + ["reward", "terminal"]
        )
        rewards = per_step_rewards(self)
        zeta = self.integrator if self.integrator is not None else np.zeros((len(self), m))
        write_csv(path, header, (
            [k]
            + list(self.reference[k])
            + list(self.measured[k])
            + list(self.raw_action[k])
            + list(self.applied_action[k])
            + list(zeta[k])
            + [rewards[k], 0]  # rollout raises on a terminal step
            for k in range(len(self))))


def per_step_rewards(traj: Trajectory) -> np.ndarray:
    """Task reward per step with discount 0: the plants' root_error_sum,
    scaled as -S / d."""
    return -root_error_sum(traj.reference, traj.measured, traj.limit) / traj.reference.shape[1]


def mean_task_reward(traj: Trajectory) -> float:
    if len(traj) == 0:
        raise ConfigurationError("empty trajectory")
    return float(np.mean(per_step_rewards(traj)))


# Steps dropped at the start of every steady-state segment, per plant: the
# motor current loop settles more slowly than the grid voltage.
STEADY_STATE_SKIP = {"grid": 100, "motor": 200}


def require_steady_state_window(kind: str, segment_length: int) -> None:
    """Refuse a `segment_length` that leaves no steady-state window on
    plant `kind` (ConfigurationError)."""
    if segment_length <= STEADY_STATE_SKIP[kind]:
        raise ConfigurationError(
            f"experiment.segment_length={segment_length} leaves no steady-state window: "
            f"it must exceed the {STEADY_STATE_SKIP[kind]} steps skipped on the {kind} plant")


def steady_state_metric(
    traj: Trajectory,
    segment_length: int = 500,
    skip: int | None = None,
) -> tuple[np.ndarray, float]:
    """Per-segment means with the transient window dropped.

    The first `skip` steps of every segment are discarded (by default the
    plant's STEADY_STATE_SKIP) and the task reward is averaged over the
    remainder; returns (per-segment means, their mean).
    """
    if skip is None:
        skip = STEADY_STATE_SKIP[traj.kind]
    n = len(traj)
    if segment_length <= skip:
        raise ConfigurationError("segment_length must exceed the skipped window")
    if n % segment_length != 0:
        raise ConfigurationError(
            f"trajectory length {n} is not a whole number of {segment_length}-step segments"
        )
    windows = per_step_rewards(traj).reshape(n // segment_length, segment_length)[:, skip:]
    means = windows.mean(axis=1)
    return means, float(np.mean(means))


def box_stats(values) -> dict:
    """Quartile summary with Tukey outliers (reported, never dropped)."""
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        raise ConfigurationError("no values to aggregate")
    q1, med, q3 = np.percentile(v, [25, 50, 75])
    iqr = q3 - q1
    lo_fence = q1 - 1.5 * iqr
    hi_fence = q3 + 1.5 * iqr
    outliers = v[(v < lo_fence) | (v > hi_fence)]
    return {
        "count": int(v.size),
        "median": float(med),
        "q1": float(q1),
        "q3": float(q3),
        "min": float(v.min()),
        "max": float(v.max()),
        "outliers": [float(x) for x in np.sort(outliers)],
        "crop_lo": float(lo_fence),
        "crop_hi": float(hi_fence),
    }
