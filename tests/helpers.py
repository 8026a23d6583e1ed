"""Shared independent oracles for the test suite.

The finite-difference machinery here deliberately goes through the public
forward pass only, never the analytic backward path it is used to check.
"""

from __future__ import annotations

import numpy as np

from secrl.nn.mlp import MlpParams, mlp_forward


def perturb_param(params: MlpParams, layer: int, kind: str, index: tuple, delta: float) -> MlpParams:
    """Copy of params with one scalar entry shifted by delta."""
    p = params.copy()
    if kind == "w":
        p.weights[layer][index] += delta
    else:
        p.biases[layer][index] += delta
    return p


def iter_param_entries(params: MlpParams):
    """Yield (layer, kind, index) for every scalar parameter."""
    for j, (w, b) in enumerate(zip(params.weights, params.biases)):
        for idx in np.ndindex(w.shape):
            yield j, "w", idx
        for idx in np.ndindex(b.shape):
            yield j, "b", (idx[0],)


def fd_param_gradient(scalar_fn, params: MlpParams, step: float = 1e-6) -> np.ndarray:
    """Central finite differences of scalar_fn(params) over every entry."""
    grad = []
    for layer, kind, idx in iter_param_entries(params):
        idx_t = idx if kind == "w" else idx[0]
        hi = scalar_fn(perturb_param(params, layer, kind, idx_t, step))
        lo = scalar_fn(perturb_param(params, layer, kind, idx_t, -step))
        grad.append((hi - lo) / (2.0 * step))
    return np.asarray(grad)


def fd_input_gradient(params: MlpParams, x: np.ndarray, cotangent: np.ndarray, step: float = 1e-6) -> np.ndarray:
    """Central finite differences of cot . f(x) over the input vector."""
    grad = np.zeros_like(x)
    for i in range(len(x)):
        xp = x.copy()
        xp[i] += step
        xm = x.copy()
        xm[i] -= step
        hi = float(np.dot(cotangent, mlp_forward(params, xp)[0]))
        lo = float(np.dot(cotangent, mlp_forward(params, xm)[0]))
        grad[i] = (hi - lo) / (2.0 * step)
    return grad


def ou_stationary_variance(ou) -> float:
    """Variance of the OU noise's AR(1) recursion (requires 0 < stiffness*dt < 2)."""
    lam_dt = ou.stiffness * ou.dt
    return ou.diffusion ** 2 * ou.dt / (2.0 * lam_dt - lam_dt ** 2)


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    """Norm-wise relative deviation, safe near zero."""
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
    return float(np.linalg.norm(a - b) / denom)


def random_mlp(rng: np.random.Generator, n_hidden_layers: int, in_dim: int, out_dim: int,
               output_activation: str, beta: float | None = None) -> MlpParams:
    """Small random network with O(1) weights (away from activation kinks)."""
    from secrl.nn.mlp import mlp_init

    sizes = [in_dim] + [int(rng.integers(2, 7)) for _ in range(n_hidden_layers)] + [out_dim]
    beta = beta if beta is not None else float(rng.uniform(0.05, 0.45))
    params = mlp_init(sizes, beta, output_activation, 1.0, 1.0, rng)
    # Scale up from the fan-in band so activations are O(1).
    for w, b in zip(params.weights, params.biases):
        w *= 2.0
        b *= 0.5
    return params
