"""Shared plant-simulation machinery.

Environment contract (duck-typed, mirrored by both plants):

    reset(seed=None) -> obs          # seed re-derives all internal rngs
    step(u, raw_p=None, raw_i=None)  # -> (obs, task_reward, terminal, info)
    action_dim, obs_dim              # ints

Actions are modulation indices in [-1, 1]^m (physical voltage =
index * v_dc / 2).  Observations are normalized feature vectors; the
optional raw_p / raw_i blocks are echoed into the next observation's
past-action features.  Stepping a terminal environment without reset
raises EnvironmentFault.
"""

from __future__ import annotations

import numpy as np

from .. import ConfigurationError


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
        """Oldest-first concatenation; empty array when length is 0."""
        if self.length == 0:
            return np.zeros(0)
        return self._buf.ravel().copy()
