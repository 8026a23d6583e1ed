"""Self-describing npz checkpoints.

Two levels: a full agent (networks, targets, optimizer moments), and a
complete training snapshot (agent plus replay buffer, noise/integrator
state, rng states, and environment state) that resumes bit-exactly.
Members are stored uncompressed, as float64 weights, moments and replay
rows barely deflate.  One reader (``_reading``, ``_read_into``) reads every
npz file the package loads, checkpoints and test cases alike: it checks
each member's zip entries before it opens the member, then reads a stored
member straight from the file into its destination vector, and a deflated
one (older checkpoints, test cases) through a ``zipfile`` stream.
``atomic_write`` here is the one writer of every file a run leaves,
checkpoints, CSVs (``write_csv``), json and yaml alike.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import struct
import tokenize
import warnings
import zipfile
import zlib
from pathlib import Path

import numpy as np

from . import ConfigurationError
from .ddpg.agent import AgentConfig, DdpgAgent
from .nn.mlp import layer_views

FORMAT_VERSION = 1
# A zip local file header: signature, flags, method, name and extra lengths.
_LOCAL_HEADER = struct.Struct("<4s2xHH16xHH")
# The start of an npy 1.0 member; the header's length follows, a uint16.
_NPY_MAGIC = b"\x93NUMPY\x01\x00"
# What reading a damaged, truncated or foreign npz file can raise.
READ_ERRORS = (OSError, EOFError, KeyError, TypeError, ValueError, zipfile.BadZipFile, zlib.error)


class _MemberError(ConfigurationError):
    """A damaged npz member; ``_reading`` names the kind of file it is in."""


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


@contextlib.contextmanager
def _member(zf: zipfile.ZipFile, key: str):
    """Open npz member ``key`` and yield ``(info, header, source)``: its zip
    entry, its npy 1.0 header, and a reader at the first data byte, the
    file itself when the member is stored, a ``zipfile`` stream when it is
    deflated.  Another method, any flag bit (encryption, data descriptor),
    a local header whose signature, flags, method or name disagrees with
    the directory, or no npy 1.0 magic raises ConfigurationError naming
    ``key``; so ``zf.open`` meets only entries it reads."""
    info = zf.getinfo(f"{key}.npy")
    if info.compress_type not in (zipfile.ZIP_STORED, zipfile.ZIP_DEFLATED) or info.flag_bits:
        raise _MemberError(f"member {key}: zip method {info.compress_type} "
                           f"with flags {info.flag_bits:#x} is not stored or deflated")
    zf.fp.seek(info.header_offset)
    # A short local header, padded, then fails the name check.
    local = zf.fp.read(_LOCAL_HEADER.size).ljust(_LOCAL_HEADER.size, b"\0")
    signature, flags, method, name_len, extra_len = _LOCAL_HEADER.unpack(local)
    if ((signature, flags, method) != (b"PK\x03\x04", 0, info.compress_type)
            or zf.fp.read(name_len) != info.orig_filename.encode()):
        raise _MemberError(f"member {key}: local header disagrees with the zip directory")
    zf.fp.seek(extra_len, os.SEEK_CUR)
    stored = info.compress_type == zipfile.ZIP_STORED
    with contextlib.nullcontext(zf.fp) if stored else zf.open(info) as source:
        start = source.read(len(_NPY_MAGIC) + 2)
        if len(start) != len(_NPY_MAGIC) + 2 or not start.startswith(_NPY_MAGIC):
            raise _MemberError(f"member {key}: not an npy 1.0 array")
        yield info, start + source.read(int.from_bytes(start[-2:], "little")), source


def _parse_header(key: str, header: bytes) -> tuple:
    """``(shape, fortran_order, dtype)`` of an npy 1.0 header; one numpy
    cannot parse, or parses only with a warning (such as its Python 2
    header fallback, which no writer here needs), raises
    ConfigurationError naming ``key``."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return np.lib.format.read_array_header_1_0(io.BytesIO(header[len(_NPY_MAGIC):]))
    except (ValueError, SyntaxError, tokenize.TokenError, Warning) as exc:
        raise _MemberError(f"member {key}: {exc}") from exc


def _fill(key: str, info: zipfile.ZipInfo, header: bytes, source, out: np.ndarray) -> None:
    """Read a member's data, after ``header``, from ``source`` into ``out``
    with one ``readinto``; a stored member then gets one CRC pass over
    header and data (a deflated stream checks its own CRC).  A directory
    size other than the header's, a short read or a CRC mismatch raises
    ConfigurationError."""
    size = len(header) + out.nbytes
    if info.file_size != size:
        raise _MemberError(
            f"member {key} is truncated" if info.file_size < size
            else f"member {key} is longer than its header says")
    dest = _bytes_of(out)
    if source.readinto(dest) != out.nbytes:
        raise _MemberError(f"member {key} is truncated")
    if (info.compress_type == zipfile.ZIP_STORED
            and zlib.crc32(dest, zlib.crc32(header)) != info.CRC):
        raise _MemberError(f"member {key} fails its CRC check")


def _read_into(data: zipfile.ZipFile, key: str, out: np.ndarray) -> None:
    """Read npz member ``key`` straight into the view ``out``.  A header
    other than the one numpy writes for ``out`` is parsed, so other padding
    loads; a member of another shape or dtype raises ConfigurationError.
    Members are read one by one into live vectors: a member refused midway
    through a load leaves the members read before it written."""
    with _member(data, key) as (info, header, source):
        if header != _npy_header(out.shape, out.dtype):
            shape, fortran_order, dtype = _parse_header(key, header)
            if (shape, fortran_order, dtype) != (out.shape, False, out.dtype):
                raise _MemberError(f"member {key}: {dtype}{shape}, expected "
                                   f"{out.dtype}{out.shape}")
        _fill(key, info, header, source, out)


def _read_meta(zf: zipfile.ZipFile) -> str:
    """The text of the 0-d unicode member ``meta``."""
    with _member(zf, "meta") as (info, header, source):
        shape, _, dtype = _parse_header("meta", header)
        if shape != () or dtype.kind != "U" or info.file_size != len(header) + dtype.itemsize:
            raise _MemberError(f"member meta: {dtype}{shape} in "
                               f"{info.file_size} bytes, expected one text")
        meta = np.empty((), dtype)
        _fill("meta", info, header, source, meta)
    return str(meta)


def _zip_file(path: str | Path) -> zipfile.ZipFile:
    """``path`` opened as a zip file, its directory read; an entry that
    needs a later zip version raises BadZipFile."""
    try:
        return zipfile.ZipFile(path)
    except NotImplementedError as exc:
        raise zipfile.BadZipFile(str(exc)) from exc


@contextlib.contextmanager
def _reading(path: str | Path, kind: str):
    """Yield ``(meta, data)`` of npz file ``path``: its decoded meta and the
    open file, whose members ``_read_into`` reads.  ``kind`` is ``"agent"``
    or ``"trainer"`` for a checkpoint, whose other versions are refused, or
    ``"test case"``.  A damaged or foreign file, a missing member or a meta
    field of the wrong kind (also one looked up inside the ``with`` block)
    raises ConfigurationError.  A ConfigurationError raised inside a
    checkpoint's block passes as is, a damaged member's as "checkpoint
    member ..."; a test case reports either as unreadable."""
    noun = kind if kind == "test case" else "checkpoint"
    try:
        with _zip_file(path) as zf:
            meta = json.loads(_read_meta(zf), object_hook=_decode)
            version = meta.get("version") if isinstance(meta, dict) else None
            if noun == "checkpoint" and version != FORMAT_VERSION:
                raise ConfigurationError(f"unsupported {kind} checkpoint version {version}")
            yield meta, zf
    except READ_ERRORS as exc:
        if noun == "checkpoint" and isinstance(exc, _MemberError):
            raise ConfigurationError(f"checkpoint {exc}") from exc
        if noun == "checkpoint" and isinstance(exc, ConfigurationError):
            raise
        raise ConfigurationError(f"cannot read {noun} {path}: {exc}") from exc


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


def _load_members(meta: dict, data, agent: DdpgAgent, members) -> None:
    """Read ``members``, the writer's ``(member name, view)`` list, then check
    ``agent``'s networks and set its optimizer scalars.  A stored network
    layout, hidden slope or output activation, or an optimizer kind, other
    than the agent's raises ConfigurationError before any member is read."""
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
    for key, view in members:
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
        _load_members(meta, data, agent, _agent_members(agent))
        return agent, meta["extra"]


# -- full training snapshots ------------------------------------------------

def _snapshot_members(trainer, count: int):
    """``(member name, view)`` of every array of a snapshot, in file order:
    the first ``count`` rows of each ring column (``buf_obs``, ...), then
    ``_agent_members``; a count the ring cannot hold raises ConfigurationError."""
    for key, view in trainer.buffer.rows(count).items():
        yield f"buf_{key}", view
    yield from _agent_members(trainer.agent)


def save_trainer(path: str | Path, trainer, config_echo: dict | None = None) -> None:
    state = trainer.state_dict()
    buffer = state.pop("buffer")
    meta = _agent_meta(trainer.agent)
    meta["trainer_state"] = state
    meta["buffer_scalars"] = {"cursor": buffer["cursor"], "count": buffer["count"]}
    meta["config_echo"] = config_echo or {}
    _write_npz(path, meta, dict(_snapshot_members(trainer, buffer["count"])))


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


# The JSON kind of each type a trainer state holds; a numpy scalar is
# stored as its ``item()``, as ``_encode`` writes it.
_JSON_KINDS = {bool: "bool", int: "int", float: "float", str: "str", list: "list",
               tuple: "list", type(None): "null"}


def _json_kind(value) -> str:
    value = value.item() if isinstance(value, np.generic) else value
    return _JSON_KINDS.get(type(value), type(value).__name__)


def _check_layout(stored, live, where: str = "trainer_state") -> None:
    """Refuse a stored trainer state whose dicts hold other keys, whose
    arrays have other shapes, or whose other values are of another JSON
    kind than the ``live`` one's; list lengths and scalar values are left
    to ``Trainer.load_state_dict``."""
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
    elif _json_kind(stored) != _json_kind(live):
        raise ConfigurationError(
            f"checkpoint {where}: {_json_kind(stored)}, expected {_json_kind(live)}")


def load_trainer_into(path: str | Path, trainer, config_echo: dict | None = None) -> None:
    """Restore a snapshot into a Trainer built from the identical config,
    reading it straight into the trainer's networks, moments and ring.
    Before any member is read, a stored config other than ``config_echo``
    (when given), a stored trainer state of another layout than
    ``trainer``'s and a replay count the ring cannot hold raise
    ConfigurationError."""
    with _reading(path, "trainer") as (meta, data):
        if config_echo is not None:
            _check_config(path, meta["config_echo"], config_echo)
        live = trainer.state_dict()
        del live["buffer"]
        _check_layout(meta["trainer_state"], live)
        ring = meta["buffer_scalars"]
        _load_members(meta, data, trainer.agent, _snapshot_members(trainer, ring["count"]))
        trainer.buffer.restore(ring["count"], ring["cursor"])
        trainer.load_state_dict(meta["trainer_state"])
