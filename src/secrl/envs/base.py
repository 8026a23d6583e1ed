"""Shared plant-simulation machinery.

Environment contract (duck-typed, mirrored by both plants):

    reset(seed=None) -> obs          # seed re-derives all internal rngs
    step(u, raw_p=None, raw_i=None, scored=True, observed=True)
                                     # -> (obs, task_reward, terminal, info)
    measurements() -> dict           # last measurement and the reference
    action_dim, obs_dim              # ints

Actions are modulation indices in [-1, 1]^m (physical voltage =
index * v_dc / 2).  Observations are normalized feature vectors; the
optional raw_p / raw_i blocks are echoed into the next observation's
past-action features.  A step that needs no reward (evaluation rescores
the trajectory) passes scored=False, and one whose caller reads the
measurements instead of the observation passes observed=False; None then
stands in for the skipped value, and the plant evolves the same.  The
arrays in info are shared with the environment: callers must not write
into them, nor into the measurements, which are read-only views.
Stepping a terminal environment without reset raises EnvironmentFault.

PlantEnv holds the episode mechanic both plants share; each plant adds its
physics, exogenous input, measurement, features and reward.
"""

from __future__ import annotations

import numpy as np

from .. import ConfigurationError, EnvironmentFault


class LtiStepper:
    """Propagates x' = A x + B u + c over one control period.

    Classical fixed-step 4th-order Runge-Kutta with `substeps` stages per
    period, folded into a single (M, N) pair — for an LTI system with the
    input held constant over the period this is algebraically the same
    recursion, evaluated as x_next = M x + N (B u + c).

    `a` may also be a stack (k, n, n): the same operations then run, in the
    same order, on every matrix of the stack, and m_per/n_per are stacks
    whose slice j equals the pair built from a[j] alone.  propagate(x, u, j)
    uses slice j.

    `x` may also be a stack of states (k, n), with `u` of shape (k, m): row
    r is then propagated as propagate(x[r], u[r], j) would, bit for bit,
    through stacked mat-vecs.  (A 2-D product x @ m_per.T sums in another
    order and is not bit-equal.)
    """

    def __init__(self, a: np.ndarray, b: np.ndarray, c: np.ndarray, dt: float, substeps: int):
        if dt <= 0 or substeps < 1:
            raise ConfigurationError(f"need dt > 0 and substeps >= 1, got {dt}, {substeps}")
        n = a.shape[-1]
        h = dt / substeps
        ha = h * a
        ha2 = ha @ ha
        ha3 = ha2 @ ha
        ha4 = ha3 @ ha
        eye = np.eye(n)
        m_sub = eye + ha + ha2 / 2.0 + ha3 / 6.0 + ha4 / 24.0
        n_sub = h * (eye + ha / 2.0 + ha2 / 6.0 + ha3 / 24.0)
        m_per = eye
        n_per = np.zeros_like(n_sub)
        for _ in range(substeps):
            n_per = m_sub @ n_per + n_sub
            m_per = m_sub @ m_per
        self.m_per = m_per
        self.n_per = n_per
        self.b = b
        self.c = c

    def propagate(self, x: np.ndarray, u: np.ndarray, j: int | None = None) -> np.ndarray:
        if x.ndim == 2:
            m, n = (self.m_per, self.n_per) if j is None else (self.m_per[j], self.n_per[j])
            w = (self.b @ u[:, :, None])[:, :, 0] + self.c
            return (m @ x[:, :, None])[:, :, 0] + (n @ w[:, :, None])[:, :, 0]
        if j is None:
            return self.m_per @ x + self.n_per @ (self.b @ u + self.c)
        return self.m_per[j] @ x + self.n_per[j] @ (self.b @ u + self.c)


class HistoryRing:
    """Fixed-length chronological ring of past measurement vectors."""

    def __init__(self, length: int, width: int):
        self.length = int(length)
        self.width = int(width)
        self._buf = np.zeros((max(self.length, 1), self.width))

    def reset(self) -> None:
        self._buf[:] = 0.0

    def push(self, value: np.ndarray) -> None:
        if self.length == 0:
            return
        self._buf[:-1] = self._buf[1:]
        self._buf[-1] = value

    def flat(self) -> np.ndarray:
        """Oldest-first concatenation; empty array when length is 0.

        A view of the ring, changed by the next push: callers must not
        write into it, and must copy it to keep it."""
        if self.length == 0:
            return np.zeros(0)
        return self._buf.ravel()


def read_only(a: np.ndarray) -> np.ndarray:
    """A view of `a` that refuses writes."""
    view = a.view()
    view.setflags(write=False)
    return view


def root_error_sum(ref: np.ndarray, meas: np.ndarray, limit: float) -> np.ndarray:
    """The task reward's core: the sum over channels of the root error ratio
    |ref - meas| / limit, each ratio saturated at 1.  For a stack (k, d),
    the k sums, each bit-equal to that row's own."""
    ratio = np.abs(np.subtract(ref, meas))
    ratio /= limit
    np.minimum(ratio, 1.0, out=ratio)
    return np.sqrt(ratio, out=ratio).sum(axis=-1)


def task_reward(ref: np.ndarray, meas: np.ndarray, limit: float, gamma: float) -> float | np.ndarray:
    """Mean root error over the channels, scaled by 1 - gamma, so the
    per-step reward stays within [-(1-gamma), 0].

    A float for one measurement (d,); for a stack (k, d), the k rewards,
    each bit-equal to that row's float."""
    reward = -(1.0 - gamma) / np.shape(meas)[-1] * root_error_sum(ref, meas, limit)
    return float(reward) if reward.ndim == 0 else reward


class PlantEnv:
    """Episode core of a plant driven by modulation indices in [-1, 1]^m
    through one control period of actuation dead time.  A plant sets `name`
    (for error messages) and provides _derive_rngs(seed), _propagate(applied
    voltage) -> next state, which also advances its exogenous input, and
    _features(*measurement, raw_p, raw_i)."""

    name: str

    def __init__(self, gamma: float, terminate_on_violation: bool, seed: int, *,
                 action_dim: int, obs_dim: int, history: HistoryRing, limits: np.ndarray,
                 v_dc: float):
        self.gamma = float(gamma)
        self.terminate_on_violation = bool(terminate_on_violation)
        self.action_dim = action_dim
        self.obs_dim = obs_dim
        self._hist = history
        # |x| limits in state order, for the violation flag.
        self._limits = limits
        self._half_bus = v_dc / 2.0
        self._no_raw = read_only(np.zeros(action_dim))
        self._seed = int(seed)
        self._derive_rngs(self._seed)

    def _reset_core(self, seed: int | None, state_dim: int) -> None:
        if seed is not None:
            self._seed = int(seed)
            self._derive_rngs(self._seed)
        self._x = np.zeros(state_dim)
        self._pending_u = np.zeros(self.action_dim)
        self._hist.reset()
        self._step_in_episode = 0
        self._terminal = False

    def _transition(self, u) -> np.ndarray | np.bool_:
        """Apply last step's command for one period and hold `u` for the
        next: the action contract, the dead time, the non-finite check and
        the step counter.  Returns the limit-violation flag, per row for a
        stacked state."""
        if self._terminal:
            raise EnvironmentFault("step() called on terminal environment; reset first")
        u = np.asarray(u, dtype=np.float64)
        if u.shape != self._pending_u.shape:
            raise ConfigurationError(
                f"{self.name} action must have shape {self._pending_u.shape}, got {u.shape}")
        if (np.abs(u) > 1.0 + 1e-9).any():
            raise ConfigurationError(f"action outside [-1, 1]: {u}")
        # np.clip to [-1, 1], without its Python wrapper; a new array.
        u = np.minimum(np.maximum(u, -1.0), 1.0)
        # Dead time: the voltage applied this period is last step's command.
        self._x = x = self._propagate(self._pending_u * self._half_bus)
        if not np.isfinite(x).all():
            raise EnvironmentFault(f"{self.name} plant state became non-finite")
        self._pending_u = u
        self._step_in_episode += 1
        return (np.abs(x) > self._limits).any(axis=-1)

    def _settle(self, violation) -> tuple[bool, bool]:
        """(violation, terminal) of a 1-D step; a terminal step needs a reset."""
        violation = bool(violation)
        self._terminal = terminal = violation and self.terminate_on_violation
        return violation, terminal

    def _observe(self, meas: tuple, raw_p=None, raw_i=None, observed: bool = True):
        """The observation of `meas` (None unless `observed`); then its
        first entry enters the history."""
        obs = self._features(*meas, self._no_raw if raw_p is None else raw_p,
                             self._no_raw if raw_i is None else raw_i) if observed else None
        self._hist.push(meas[0])
        return obs

    @property
    def plant_state(self) -> np.ndarray:
        """True (noise-free) state; for tests and logging."""
        return self._x.copy()

    @plant_state.setter
    def plant_state(self, x: np.ndarray) -> None:
        self._x = np.asarray(x, dtype=np.float64).copy()

    def state_dict(self) -> dict:
        return {
            "x": self._x.copy(),
            "pending_u": self._pending_u.copy(),
            "hist": self._hist._buf.copy(),
            "step_in_episode": self._step_in_episode,
            "terminal": self._terminal,
        }

    def load_state_dict(self, s: dict) -> None:
        self._x = np.asarray(s["x"], dtype=np.float64).copy()
        self._pending_u = np.asarray(s["pending_u"], dtype=np.float64).copy()
        self._hist._buf = np.asarray(s["hist"], dtype=np.float64).copy()
        self._step_in_episode = int(s["step_in_episode"])
        self._terminal = bool(s["terminal"])
