"""A network's dtype has one source: ``nn.mlp.DTYPE`` is read only where
``MlpParams.__init__`` allocates ``data``; gradients, moments and
activations follow ``params.data.dtype``."""

import ast
from pathlib import Path

import numpy as np
import pytest

from secrl.nn import mlp
from secrl.nn.optim import make_optimizer, optimizer_step
from secrl.seeding import derive_rng

SRC = Path(__file__).resolve().parent.parent / "src" / "secrl"


def dtype_reads(source: str, module: str) -> list[str]:
    """``module:line`` of each read of ``DTYPE`` (a bare name, an attribute
    or an import) in ``source``, except inside ``MlpParams.__init__`` of
    ``nn/mlp.py``."""
    tree = ast.parse(source)
    allowed = {id(node) for cls in ast.walk(tree)
               if module == "nn/mlp.py" and isinstance(cls, ast.ClassDef)
               and cls.name == "MlpParams"
               for fn in cls.body
               if isinstance(fn, ast.FunctionDef) and fn.name == "__init__"
               for node in ast.walk(fn)}
    found = []
    for node in ast.walk(tree):
        if id(node) in allowed:
            continue
        if ((isinstance(node, ast.Name) and node.id == "DTYPE" and isinstance(node.ctx, ast.Load))
                or (isinstance(node, ast.Attribute) and node.attr == "DTYPE")
                or (isinstance(node, ast.ImportFrom)
                    and any(alias.name == "DTYPE" for alias in node.names))):
            found.append(node.lineno)
    return [f"{module}:{line}" for line in sorted(found)]


def test_dtype_is_read_only_where_mlp_params_allocates():
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) > 20
    found = [hit for path in modules
             for hit in dtype_reads(path.read_text(), path.relative_to(SRC).as_posix())]
    assert found == []


def test_dtype_reads_are_found_outside_the_allocation():
    source = (
        "DTYPE = float\n"
        "class MlpParams:\n"
        "    def __init__(self, n):\n"
        "        self.data = zeros(n, DTYPE)\n"
        "    def copy(self):\n"
        "        return zeros(1, DTYPE)\n"
        "def mlp_forward(params, x):\n"
        "    return asarray(x, dtype=DTYPE)\n"
    )
    assert dtype_reads(source, "nn/mlp.py") == ["nn/mlp.py:6", "nn/mlp.py:8"]
    assert dtype_reads(source, "nn/optim.py") == \
        ["nn/optim.py:4", "nn/optim.py:6", "nn/optim.py:8"]
    assert dtype_reads("from .mlp import DTYPE\nx = mlp.DTYPE\n", "nn/optim.py") == \
        ["nn/optim.py:1", "nn/optim.py:2"]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gradients_moments_and_activations_follow_the_network(monkeypatch, dtype):
    monkeypatch.setattr(mlp, "DTYPE", dtype)
    params = mlp.mlp_init([3, 4, 2], 0.2, mlp.TANH, 1.0, 1.0, derive_rng(0, 0))
    # A read of DTYPE after the allocation would now show as float16.
    monkeypatch.setattr(mlp, "DTYPE", np.float16)
    out, cache = mlp.mlp_forward(params, np.ones(3))
    grads, x_cot = mlp.mlp_backward(params, cache, np.ones(2))
    state = make_optimizer("adam", params)
    optimizer_step(state, params, grads, 1e-3)
    arrays = (params.data, out, *cache.inputs, *cache.pre_acts, grads, x_cot, state.m, state.v)
    assert {a.dtype for a in arrays} == {np.dtype(dtype)}
