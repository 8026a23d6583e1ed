"""Self-describing npz checkpoints.

Three levels: bare network parameters, a full agent (networks, targets,
optimizer moments), and a complete training snapshot (agent plus replay
buffer, noise/integrator state, rng states, and environment state) that
resumes bit-exactly.  Members are stored uncompressed, as float64 weights,
moments and replay rows barely deflate; older deflated files still load.
"""

from __future__ import annotations

import contextlib
import json
import os
import zipfile
import zlib
from pathlib import Path

import numpy as np

from . import ConfigurationError
from .ddpg.agent import AgentConfig, DdpgAgent
from .nn.mlp import MlpParams
from .nn.optim import AdamState, RmsPropState, SgdState

FORMAT_VERSION = 1
_READ_CHUNK = 1 << 18  # bytes
# What reading a damaged, truncated or foreign npz file can raise.
READ_ERRORS = (OSError, EOFError, KeyError, TypeError, ValueError, zipfile.BadZipFile, zlib.error)


def _jsonable(obj):
    """Recursively convert numpy values so json can store them."""
    if isinstance(obj, np.ndarray):
        return {"__nd__": obj.tolist(), "dtype": str(obj.dtype)}
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _unjsonable(obj):
    if isinstance(obj, dict):
        if "__nd__" in obj:
            return np.asarray(obj["__nd__"], dtype=obj.get("dtype", "float64"))
        return {k: _unjsonable(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_unjsonable(v) for v in obj]
    return obj


# -- file format -----------------------------------------------------------

def _write_npz(path: str | Path, meta: dict, arrays: dict) -> None:
    """Write ``meta`` (json, with the format version) and ``arrays`` to a
    temporary file beside ``path``, then rename it over ``path``: a crash or
    kill mid-write leaves the previous file intact (no fsync, so not power
    loss).  Like ``np.savez``, a missing ``.npz`` suffix is appended."""
    dest = os.fspath(path)
    if not dest.endswith(".npz"):
        dest += ".npz"
    tmp = f"{dest}.{os.urandom(6).hex()}.tmp"
    try:
        with open(tmp, "xb") as fh:
            np.savez(fh, meta=json.dumps({"version": FORMAT_VERSION, **meta}), **arrays)
        os.replace(tmp, dest)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


@contextlib.contextmanager
def _reading(path: str | Path, kind: str):
    """Yield ``(meta, data)``; unreadable files, missing members or meta
    fields of the wrong kind (also when looked up inside the ``with``
    block) and other versions raise ConfigurationError."""
    try:
        with np.load(path, allow_pickle=False) as data:
            meta = json.loads(str(data["meta"]))
            if meta.get("version") != FORMAT_VERSION:
                raise ConfigurationError(
                    f"unsupported {kind} checkpoint version {meta.get('version')}")
            yield meta, data
    except READ_ERRORS as exc:
        raise ConfigurationError(f"cannot read checkpoint {path}: {exc}") from exc


# -- networks --------------------------------------------------------------

def _pack_network(prefix: str, params: MlpParams, arrays: dict) -> dict:
    for j, (w, b) in enumerate(zip(params.weights, params.biases)):
        arrays[f"{prefix}w{j}"] = w
        arrays[f"{prefix}b{j}"] = b
    return {
        "layer_sizes": params.layer_sizes,
        "beta": params.beta,
        "output_activation": params.output_activation,
    }


def _read_into(data, key: str, out: np.ndarray) -> None:
    """Read npz member ``key`` straight into the view ``out``; a member of
    another shape or dtype raises ConfigurationError."""
    with data.zip.open(f"{key}.npy") as fh:
        if np.lib.format.read_magic(fh) != (1, 0):
            raise ConfigurationError(f"checkpoint member {key}: unsupported npy version")
        shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(fh)
        if (shape, fortran_order, dtype) != (out.shape, False, out.dtype):
            raise ConfigurationError(
                f"checkpoint member {key}: {dtype}{shape}, expected {out.dtype}{out.shape}")
        # Chunked like np.load: a small reused read buffer stays in cache.
        dest = memoryview(out).cast("B")
        for at in range(0, out.nbytes, _READ_CHUNK):
            chunk = dest[at:at + _READ_CHUNK]
            if fh.readinto(chunk) != len(chunk):
                raise ConfigurationError(f"checkpoint member {key} is truncated")


def _unpack_network(prefix: str, meta: dict, data, params: MlpParams) -> None:
    """Read the stored network into ``params``; a stored layout, hidden
    slope or output activation other than ``params``' raises
    ConfigurationError."""
    stored = (meta["layer_sizes"], meta["beta"], meta["output_activation"])
    if stored != (params.layer_sizes, params.beta, params.output_activation):
        raise ConfigurationError(
            f"checkpoint network {prefix[:-1]}: layers {stored[0]}, beta {stored[1]}, "
            f"{stored[2]} output; expected layers {params.layer_sizes}, beta {params.beta}, "
            f"{params.output_activation} output")
    for j, (w, b) in enumerate(zip(params.weights, params.biases)):
        _read_into(data, f"{prefix}w{j}", w)
        _read_into(data, f"{prefix}b{j}", b)
    params.validate()


def save_network(path: str | Path, params: MlpParams) -> None:
    arrays: dict = {}
    _write_npz(path, _pack_network("", params, arrays), arrays)


def load_network(path: str | Path) -> MlpParams:
    with _reading(path, "network") as (meta, data):
        params = MlpParams(meta["layer_sizes"], None, None, meta["beta"],
                           meta["output_activation"])
        _unpack_network("", meta, data, params)
        return params


# -- optimizer states ------------------------------------------------------

# kind -> (state class, {array key code: per-layer view list}, scalar fields)
_OPTIMIZERS = {
    "adam": (AdamState, {"mw": "m_w", "mb": "m_b", "vw": "v_w", "vb": "v_b"},
             ("step", "beta1", "beta2", "eps")),
    "sgd": (SgdState, {"vw": "vel_w", "vb": "vel_b"}, ("momentum",)),
    "rmsprop": (RmsPropState, {"sw": "sq_w", "sb": "sq_b"}, ("rho", "eps")),
}


def _moment_members(prefix: str, lists: dict, state):
    """``(member name, per-layer moment view)`` of ``state``, in file order."""
    per_layer = [getattr(state, name) for name in lists.values()]
    for j in range(len(per_layer[0])):
        for code, views in zip(lists, per_layer):
            yield f"{prefix}_{code}{j}", views[j]


def _pack_optimizer(prefix: str, state, arrays: dict) -> dict:
    for kind, (cls, lists, scalars) in _OPTIMIZERS.items():
        if isinstance(state, cls):
            members = dict(_moment_members(prefix, lists, state))
            arrays.update(members)
            return {"kind": kind, **{k: getattr(state, k) for k in scalars},
                    "layers": len(members) // len(lists)}
    raise ConfigurationError(f"unknown optimizer state {type(state)!r}")


def _unpack_optimizer(prefix: str, meta: dict, data, state) -> None:
    """Read the stored optimizer state into ``state``'s moments; a stored
    optimizer of another kind raises ConfigurationError."""
    if meta["kind"] not in _OPTIMIZERS:
        raise ConfigurationError(f"unknown optimizer kind {meta['kind']!r}")
    cls, lists, scalars = _OPTIMIZERS[meta["kind"]]
    if not isinstance(state, cls):
        raise ConfigurationError(
            f"checkpoint optimizer {prefix}: {meta['kind']}, expected {type(state).__name__}")
    for k in scalars:
        setattr(state, k, meta[k])
    for key, view in _moment_members(prefix, lists, state):
        _read_into(data, key, view)


# -- full agents -----------------------------------------------------------

# meta key and member prefix of each network and optimizer state, in file order
_NETWORKS = (("actor", "actor_"), ("critic", "critic_"),
             ("actor_target", "actor_t_"), ("critic_target", "critic_t_"))
_OPTIMIZER_STATES = (("actor_opt", "aopt"), ("critic_opt", "copt"))


def _pack_agent(agent: DdpgAgent, arrays: dict) -> dict:
    meta = {"agent_config": _jsonable(vars(agent.config))}
    for name, prefix in _NETWORKS:
        meta[name] = _pack_network(prefix, getattr(agent, name), arrays)
    for name, prefix in _OPTIMIZER_STATES:
        meta[name] = _pack_optimizer(prefix, getattr(agent, name), arrays)
    return meta


def _unpack_agent(meta: dict, data, agent: DdpgAgent) -> None:
    """Read the stored networks and optimizer states into ``agent``'s own;
    a stored layout or optimizer kind other than the agent's raises
    ConfigurationError."""
    for name, prefix in _NETWORKS:
        _unpack_network(prefix, meta[name], data, getattr(agent, name))
    for name, prefix in _OPTIMIZER_STATES:
        _unpack_optimizer(prefix, meta[name], data, getattr(agent, name))


def save_agent(path: str | Path, agent: DdpgAgent, extra: dict | None = None) -> None:
    arrays: dict = {}
    meta = _pack_agent(agent, arrays)
    meta["extra"] = _jsonable(extra or {})
    _write_npz(path, meta, arrays)


def load_agent(path: str | Path) -> tuple[DdpgAgent, dict]:
    """The stored agent, read into one built from its stored
    ``agent_config`` as training builds it; networks or optimizer states
    that disagree with that config raise ConfigurationError."""
    with _reading(path, "agent") as (meta, data):
        # The seed is arbitrary: the stored parameters overwrite the init.
        agent = DdpgAgent(AgentConfig(**_unjsonable(meta["agent_config"])),
                          np.random.default_rng(0))
        _unpack_agent(meta, data, agent)
        return agent, _unjsonable(meta["extra"])


# -- full training snapshots ------------------------------------------------

def save_trainer(path: str | Path, trainer, config_echo: dict | None = None) -> None:
    state = trainer.state_dict()
    buffer = state.pop("buffer")
    arrays = {f"buf_{k}": v for k, v in buffer.items() if isinstance(v, np.ndarray)}
    meta = _pack_agent(trainer.agent, arrays)
    meta["trainer_state"] = _jsonable(state)
    meta["buffer_scalars"] = {"cursor": buffer["cursor"], "count": buffer["count"]}
    meta["config_echo"] = _jsonable(config_echo or {})
    _write_npz(path, meta, arrays)


def load_config_echo(path: str | Path) -> dict:
    """The effective configuration stored by ``save_trainer``."""
    with _reading(path, "trainer") as (meta, _):
        return meta["config_echo"]


def _unpack_buffer(scalars: dict, data, buffer) -> None:
    """Read the stored replay rows straight into ``buffer``'s ring and
    restore its position; a member of another shape, an impossible count
    or cursor, or a non-finite row raises ConfigurationError."""
    count = scalars["count"]
    for key, view in buffer.rows(count).items():
        _read_into(data, f"buf_{key}", view)
    buffer.restore(count, scalars["cursor"])


def load_trainer_into(path: str | Path, trainer) -> None:
    """Restore a snapshot into a Trainer built from the identical config,
    reading it straight into the trainer's networks, moments and ring."""
    with _reading(path, "trainer") as (meta, data):
        _unpack_agent(meta, data, trainer.agent)
        _unpack_buffer(meta["buffer_scalars"], data, trainer.buffer)
        state = _unjsonable(meta["trainer_state"])
    trainer.load_state_dict(state)
