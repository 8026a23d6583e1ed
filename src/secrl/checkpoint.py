"""Self-describing npz checkpoints.

Two levels: a full agent (networks, targets, optimizer moments), and a
complete training snapshot (agent plus replay buffer, noise/integrator
state, rng states, and environment state) that resumes bit-exactly.
Members are stored uncompressed, as float64 weights, moments and replay
rows barely deflate.  A stored member whose npy header is the one numpy
writes for its destination is read straight from the file into that
vector; older deflated files, and members with any other header, are read
through ``zipfile``.  ``atomic_write`` here is the one writer of every file
a run leaves, checkpoints, CSVs (``write_csv``), json and yaml alike.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import struct
import zipfile
import zlib
from pathlib import Path

import numpy as np

from . import ConfigurationError
from .ddpg.agent import AgentConfig, DdpgAgent
from .nn.mlp import layer_views

FORMAT_VERSION = 1
_READ_CHUNK = 1 << 18  # bytes
# A zip local file header: signature, flags, method, name and extra lengths.
_LOCAL_HEADER = struct.Struct("<4s2xHH16xHH")
# What reading a damaged, truncated or foreign npz file can raise.
READ_ERRORS = (OSError, EOFError, KeyError, TypeError, ValueError, zipfile.BadZipFile, zlib.error)


def _encode(obj):
    """json's ``default``: numpy values as json can store them; arrays keep
    their dtype (decoded by ``_decode``)."""
    if isinstance(obj, np.ndarray):
        return {"__nd__": obj.tolist(), "dtype": str(obj.dtype)}
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _decode(obj: dict):
    """json's ``object_hook``: the arrays that ``_encode`` stored."""
    if "__nd__" in obj:
        return np.asarray(obj["__nd__"], dtype=obj.get("dtype", "float64"))
    return obj


# -- file format -----------------------------------------------------------

@contextlib.contextmanager
def atomic_write(path: str | Path, text: bool = False, suffix: str = ""):
    """Yield a new file (text, with newlines untranslated, or binary) on a
    temporary name beside ``path``, and rename it over ``path`` when the
    block ends: a crash or kill mid-write leaves the previous file intact
    (no fsync, so not power loss), and a failed write leaves no temporary
    file.  Like ``np.savez``, a missing ``suffix`` is appended."""
    dest = os.fspath(path)
    if not dest.endswith(suffix):
        dest += suffix
    tmp = f"{dest}.{os.urandom(6).hex()}.tmp"
    try:
        with (open(tmp, "x", encoding="utf-8", newline="") if text else open(tmp, "xb")) as fh:
            yield fh
        os.replace(tmp, dest)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _write_npz(path: str | Path, meta: dict, arrays: dict) -> None:
    """Write ``meta`` (json, with the format version) and ``arrays``, each
    member stored, through ``atomic_write``."""
    with atomic_write(path, suffix=".npz") as fh:
        np.savez(fh, meta=json.dumps({"version": FORMAT_VERSION, **meta}, default=_encode),
                 **arrays)


def write_csv(path: str | Path, header: list, rows) -> None:
    """A CSV file of ``header`` and ``rows``, through ``atomic_write``."""
    with atomic_write(path, text=True) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _npy_header(shape: tuple, dtype: np.dtype) -> bytes:
    """The version 1.0 npy header numpy writes for a C-order array."""
    fh = io.BytesIO()
    np.lib.format.write_array_header_1_0(fh, {
        "descr": np.lib.format.dtype_to_descr(dtype), "fortran_order": False, "shape": shape})
    return fh.getvalue()


def _bytes_of(out: np.ndarray) -> memoryview:
    """``out``'s bytes, writable in place (memoryview refuses to cast an
    empty view, such as the rows of an empty replay ring)."""
    return memoryview(out).cast("B") if out.size else memoryview(bytearray())


def _read_stored(zf: zipfile.ZipFile, key: str, out: np.ndarray) -> bool:
    """Read member ``key`` straight from the file into ``out`` and return
    True when it is stored, has no flag bits set and begins with the npy
    header numpy writes for ``out``; else read nothing and return False.
    A short read, or a stored size or CRC that disagrees, raises
    ConfigurationError."""
    info = zf.getinfo(f"{key}.npy")
    if info.compress_type != zipfile.ZIP_STORED or info.flag_bits:
        return False
    header = _npy_header(out.shape, out.dtype)
    zf.fp.seek(info.header_offset)
    local = zf.fp.read(_LOCAL_HEADER.size)
    if len(local) != _LOCAL_HEADER.size:
        return False
    signature, flags, method, name_len, extra_len = _LOCAL_HEADER.unpack(local)
    head = zf.fp.read(name_len + extra_len + len(header))
    if ((signature, flags, method) != (b"PK\x03\x04", 0, zipfile.ZIP_STORED)
            or head[:name_len] != info.orig_filename.encode()
            or head[name_len + extra_len:] != header):
        return False
    size = len(header) + out.nbytes
    if info.file_size != size:
        raise ConfigurationError(
            f"checkpoint member {key} is truncated" if info.file_size < size
            else f"checkpoint member {key} is longer than its header says")
    dest = _bytes_of(out)
    if zf.fp.readinto(dest) != out.nbytes:
        raise ConfigurationError(f"checkpoint member {key} is truncated")
    if zlib.crc32(dest, zlib.crc32(header)) != info.CRC:
        raise ConfigurationError(f"checkpoint member {key} fails its CRC check")
    return True


def _read_into(data, key: str, out: np.ndarray) -> None:
    """Read npz member ``key`` straight into the view ``out``: through
    ``_read_stored`` when it can, else through ``zipfile``, which checks the
    CRC.  A member of another shape or dtype raises ConfigurationError."""
    if _read_stored(data.zip, key, out):
        return
    with data.zip.open(f"{key}.npy") as fh:
        if np.lib.format.read_magic(fh) != (1, 0):
            raise ConfigurationError(f"checkpoint member {key}: unsupported npy version")
        shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(fh)
        if (shape, fortran_order, dtype) != (out.shape, False, out.dtype):
            raise ConfigurationError(
                f"checkpoint member {key}: {dtype}{shape}, expected {out.dtype}{out.shape}")
        # Chunked like np.load: a small reused read buffer stays in cache.
        dest = _bytes_of(out)
        for at in range(0, out.nbytes, _READ_CHUNK):
            chunk = dest[at:at + _READ_CHUNK]
            if fh.readinto(chunk) != len(chunk):
                raise ConfigurationError(f"checkpoint member {key} is truncated")


@contextlib.contextmanager
def _reading(path: str | Path, kind: str):
    """Yield ``(meta, data)``, the meta decoded by ``_decode``; unreadable
    files, missing members or meta fields of the wrong kind (also when
    looked up inside the ``with`` block) and other versions raise
    ConfigurationError, and one raised inside the block passes as is."""
    try:
        with np.load(path, allow_pickle=False) as data:
            meta = json.loads(str(data["meta"]), object_hook=_decode)
            if meta.get("version") != FORMAT_VERSION:
                raise ConfigurationError(
                    f"unsupported {kind} checkpoint version {meta.get('version')}")
            yield meta, data
    except ConfigurationError:
        raise
    except READ_ERRORS as exc:
        raise ConfigurationError(f"cannot read checkpoint {path}: {exc}") from exc


# -- full agents -----------------------------------------------------------

# meta key and member prefix of each network and optimizer state, in file order
_NETWORKS = (("actor", "actor_"), ("critic", "critic_"),
             ("actor_target", "actor_t_"), ("critic_target", "critic_t_"))
_OPTIMIZER_STATES = (("actor_opt", "aopt"), ("critic_opt", "copt"))
# the facts of a network that a reader must share with the writer
_NETWORK_FIELDS = ("layer_sizes", "beta", "output_activation")


def _agent_meta(agent: DdpgAgent) -> dict:
    """The meta entries of ``agent``: its config, the facts of each network,
    and each optimizer's kind, scalars and layer count."""
    meta = {"agent_config": vars(agent.config)}
    for name, _ in _NETWORKS:
        meta[name] = {k: getattr(getattr(agent, name), k) for k in _NETWORK_FIELDS}
    for name, _ in _OPTIMIZER_STATES:
        state = getattr(agent, name)
        meta[name] = {"kind": state.KIND, **{k: getattr(state, k) for k in state.SCALARS},
                      "layers": len(state.layer_sizes) - 1}
    return meta


def _agent_members(agent: DdpgAgent):
    """``(member name, view)`` of every array of ``agent``, in file order:
    each network's weights and biases per layer (``actor_w0``,
    ``actor_b0``, ...), then each optimizer's moments, per layer each
    moment's weights then biases, coded by the moment's first letter
    (``aopt_mw0``, ``aopt_mb0``, ``aopt_vw0``, ...)."""
    for name, prefix in _NETWORKS:
        params = getattr(agent, name)
        for j, (w, b) in enumerate(zip(params.weights, params.biases)):
            yield f"{prefix}w{j}", w
            yield f"{prefix}b{j}", b
    for name, prefix in _OPTIMIZER_STATES:
        state = getattr(agent, name)
        views = [(moment[0], layer_views(getattr(state, moment), state.layer_sizes))
                 for moment in state.MOMENTS]
        for j in range(len(state.layer_sizes) - 1):
            for code, (w, b) in views:
                yield f"{prefix}_{code}w{j}", w[j]
                yield f"{prefix}_{code}b{j}", b[j]


def _describe(network: dict) -> str:
    return (f"layers {network['layer_sizes']}, beta {network['beta']}, "
            f"{network['output_activation']} output")


def _unpack_agent(meta: dict, data, agent: DdpgAgent) -> None:
    """Read the stored networks and optimizer states into ``agent``'s own.
    A stored network layout, hidden slope or output activation, or an
    optimizer kind, other than the agent's raises ConfigurationError before
    any member is read, so a refused load leaves ``agent`` as it was."""
    live = _agent_meta(agent)
    for name, prefix in _NETWORKS:
        stored = {k: meta[name][k] for k in _NETWORK_FIELDS}
        if stored != live[name]:
            raise ConfigurationError(f"checkpoint network {prefix[:-1]}: {_describe(stored)}; "
                                     f"expected {_describe(live[name])}")
    for name, prefix in _OPTIMIZER_STATES:
        if meta[name]["kind"] != live[name]["kind"]:
            raise ConfigurationError(f"checkpoint optimizer {prefix}: {meta[name]['kind']}, "
                                     f"expected {type(getattr(agent, name)).__name__}")
    for key, view in _agent_members(agent):
        _read_into(data, key, view)
    for name, _ in _NETWORKS:
        getattr(agent, name).validate()
    for name, _ in _OPTIMIZER_STATES:
        state = getattr(agent, name)
        for k in state.SCALARS:
            setattr(state, k, meta[name][k])


def save_agent(path: str | Path, agent: DdpgAgent, extra: dict | None = None) -> None:
    _write_npz(path, {**_agent_meta(agent), "extra": extra or {}}, dict(_agent_members(agent)))


def load_agent(path: str | Path) -> tuple[DdpgAgent, dict]:
    """The stored agent, read into one built from its stored
    ``agent_config`` as training builds it; networks or optimizer states
    that disagree with that config raise ConfigurationError."""
    with _reading(path, "agent") as (meta, data):
        # The seed is arbitrary: the stored parameters overwrite the init.
        agent = DdpgAgent(AgentConfig(**meta["agent_config"]), np.random.default_rng(0))
        _unpack_agent(meta, data, agent)
        return agent, meta["extra"]


# -- full training snapshots ------------------------------------------------

def save_trainer(path: str | Path, trainer, config_echo: dict | None = None) -> None:
    state = trainer.state_dict()
    buffer = state.pop("buffer")
    arrays = {f"buf_{k}": v for k, v in buffer.items() if isinstance(v, np.ndarray)}
    arrays.update(_agent_members(trainer.agent))
    meta = _agent_meta(trainer.agent)
    meta["trainer_state"] = state
    meta["buffer_scalars"] = {"cursor": buffer["cursor"], "count": buffer["count"]}
    meta["config_echo"] = config_echo or {}
    _write_npz(path, meta, arrays)


def _check_config(path, stored: dict, current: dict) -> None:
    """Refuse a snapshot written under other config values than
    ``current``'s; only the output directory may change."""
    stored, current = stored.get("values", {}), current["values"]
    missing = "<unset>"
    diffs = [f"{key}: checkpoint {stored.get(key, missing)!r}, now {current.get(key, missing)!r}"
             for key in sorted(stored.keys() | current.keys())
             if key != "out_dir" and stored.get(key, missing) != current.get(key, missing)]
    if diffs:
        raise ConfigurationError(
            f"checkpoint {path} was written with a different config: " + "; ".join(diffs))


def _check_layout(stored, live, where: str = "trainer_state") -> None:
    """Refuse a stored trainer state whose dicts hold other keys, or whose
    arrays have other shapes, than the ``live`` one's; list lengths and
    scalar values are left to ``Trainer.load_state_dict``."""
    if isinstance(live, dict):
        if not isinstance(stored, dict):
            raise ConfigurationError(f"checkpoint {where}: {type(stored).__name__}, expected a dict")
        for label, keys in (("missing", live.keys() - stored.keys()),
                            ("unexpected", stored.keys() - live.keys())):
            if keys:
                raise ConfigurationError(f"checkpoint {where}: {label} {sorted(keys)}")
        for key, value in live.items():
            _check_layout(stored[key], value, f"{where}.{key}")
    elif isinstance(live, np.ndarray):
        shape = stored.shape if isinstance(stored, np.ndarray) else type(stored).__name__
        if shape != live.shape:
            raise ConfigurationError(f"checkpoint {where}: shape {shape}, expected {live.shape}")


def _unpack_buffer(scalars: dict, data, buffer) -> None:
    """Read the stored replay rows straight into ``buffer``'s ring and
    restore its position; a member of another shape, an impossible count
    or cursor, or a non-finite row raises ConfigurationError."""
    count = scalars["count"]
    for key, view in buffer.rows(count).items():
        _read_into(data, f"buf_{key}", view)
    buffer.restore(count, scalars["cursor"])


def load_trainer_into(path: str | Path, trainer, config_echo: dict | None = None) -> None:
    """Restore a snapshot into a Trainer built from the identical config,
    reading it straight into the trainer's networks, moments and ring.
    Before any member is read, a stored config other than ``config_echo``
    (when given) and a stored trainer state of another layout than
    ``trainer``'s raise ConfigurationError."""
    with _reading(path, "trainer") as (meta, data):
        if config_echo is not None:
            _check_config(path, meta["config_echo"], config_echo)
        live = trainer.state_dict()
        del live["buffer"]
        _check_layout(meta["trainer_state"], live)
        _unpack_agent(meta, data, trainer.agent)
        _unpack_buffer(meta["buffer_scalars"], data, trainer.buffer)
        trainer.load_state_dict(meta["trainer_state"])
