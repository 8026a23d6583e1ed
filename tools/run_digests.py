#!/usr/bin/env python3
"""Digest every artifact of a short fixed-seed run of the ``secrl`` CLI.

At toy sizes, and into a temporary directory, the script runs:

- ``train`` on both plants for both RL variants with Adam, and for
  SEC-DDPG with SGD and RMSprop, paused with ``--until-step`` and finished
  with ``--resume`` into a new ``--out``;
- ``gen-testcase`` for every test-case kind;
- ``eval`` of each finished agent on its plant's two test cases;
- ``compare`` of ``ddpg,sec-ddpg,pi`` over 2 seeds on both plants, serially
  and with 2 workers.

It prints one ``sha256  path[:member]`` line per artifact, npz files member
by member.  ``train_seconds`` and every ``out_dir`` are removed first, as
they differ from run to run.  Two trees whose seeded outputs are equal print
the same lines, so a refactor shows byte identity with

    OPENBLAS_NUM_THREADS=1 python3 tools/run_digests.py > new.txt
    OPENBLAS_NUM_THREADS=1 python3 tools/run_digests.py --src OLD/src > old.txt
    diff old.txt new.txt

where ``OLD`` is a checkout of the other tree.  It takes about ten seconds.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import sys
import tempfile
import zipfile
from pathlib import Path

import numpy as np

VOLATILE = ("out_dir", "train_seconds")
# (agent.variant, agent.optimizer) of the train runs on each plant
RUNS = (("ddpg", "adam"), ("sec-ddpg", "adam"), ("sec-ddpg", "sgd"), ("sec-ddpg", "rmsprop"))
PLANT_KINDS = {"grid": ("grid-load-profile", "grid-steadystate"),
               "motor": ("motor-reference-profile", "motor-steadystate")}
TOY = {
    "train.steps": 300, "train.episode_steps": 100,
    "train.checkpoint_every": 100, "train.progress_every": 50,
    "agent.batch_size": 16, "agent.critic.units": 12, "agent.critic.layers": 1,
    "agent.actor.units": 10, "agent.actor.layers": 1,
    "experiment.segments": 2, "experiment.segment_length": 500,
    "experiment.grid_transient_steps": 1000, "experiment.motor_profile_steps": 1000,
    "experiment.pi_tune_steps": 100, "experiment.save_trajectories": True,
}


def _strip(obj):
    """``obj`` without the VOLATILE keys, at any depth."""
    if isinstance(obj, dict):
        return {k: _strip(v) for k, v in obj.items() if k not in VOLATILE}
    if isinstance(obj, list):
        return [_strip(v) for v in obj]
    return obj


def _stable_json(data: bytes | str) -> bytes:
    return json.dumps(_strip(json.loads(data))).encode()


def _stable_bytes(name: str, data: bytes) -> bytes:
    if name.endswith(".json"):
        return _stable_json(data)
    if name.endswith(".yaml"):
        return b"".join(line for line in data.splitlines(keepends=True)
                        if not line.startswith(b"out_dir:"))
    return data


def _members(path: Path):
    """``(member, bytes)`` of an npz file: the raw ``.npy`` bytes of each
    array, except ``meta``, whose JSON is stripped.  The zip container is
    left out, as its entries carry write times."""
    with zipfile.ZipFile(path) as zf:
        for name in sorted(zf.namelist()):
            member = name.removesuffix(".npy")
            if member == "meta":
                with np.load(path, allow_pickle=False) as data:
                    yield member, _stable_json(str(data["meta"]))
            else:
                yield member, zf.read(name)


def digest_lines(root: Path) -> list[str]:
    """One ``sha256  path[:member]`` line per artifact under ``root``."""
    lines = []
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        rel = path.relative_to(root).as_posix()
        if path.suffix == ".npz":
            items = [(f"{rel}:{m}", data) for m, data in _members(path)]
        else:
            items = [(rel, _stable_bytes(path.name, path.read_bytes()))]
        for label, data in items:
            if str(root).encode() in data:
                raise SystemExit(f"{label} names the temporary directory")
            lines.append(f"{hashlib.sha256(data).hexdigest()}  {label}")
    return lines


def _overrides(values: dict) -> list[str]:
    return [arg for k, v in values.items()
            for arg in ("--override", f"{k}={str(v).lower() if isinstance(v, bool) else v}")]


def run_commands(root: Path) -> None:
    from secrl.cli import main

    def run(*argv) -> None:
        rc = main([str(a) for a in argv])
        if rc != 0:
            raise SystemExit(f"secrl {' '.join(map(str, argv))} exited {rc}")

    for plant, kinds in PLANT_KINDS.items():
        toy = _overrides({**TOY, "env.kind": plant})
        cases = []
        for k, kind in enumerate(kinds):
            run("gen-testcase", "--kind", kind, "--seed", 40 + k, "--out", root / "cases", *toy)
            cases += ["--testcase", root / "cases" / f"testcase-{kind}-seed{40 + k}.npz"]
        for variant, optimizer in RUNS:
            name = f"{plant}-{variant}-{optimizer}"
            common = [*toy, "--override", f"agent.variant={variant}",
                      "--override", f"agent.optimizer={optimizer}", "--seed", 7]
            run("train", "--out", root / "train" / f"{name}-head", *common, "--until-step", 150)
            run("train", "--out", root / "train" / f"{name}-tail", *common,
                "--resume", root / "train" / f"{name}-head" / "checkpoint.npz")
            run("eval", "--checkpoint", root / "train" / f"{name}-tail" / "agent.npz", *cases,
                "--seed", 7, "--out", root / "eval" / name, *toy)
        for workers in (1, 2):
            run("compare", "--out", root / "compare" / f"{plant}-workers{workers}", *toy,
                "--override", "experiment.variants=ddpg,sec-ddpg,pi",
                "--override", "experiment.seeds=1,2",
                "--override", f"experiment.workers={workers}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
                        help="directory to import secrl from (default: this tree's src)")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    import secrl

    # An installed secrl that shadows --src would digest the wrong tree.
    if not Path(secrl.__file__).resolve().is_relative_to(args.src.resolve()):
        raise SystemExit(f"secrl imports from {secrl.__file__}, not from {args.src}")
    with tempfile.TemporaryDirectory(prefix="secrl-digests-") as tmp:
        root = Path(tmp)
        # The CLI's own prints go to stderr, so stdout holds the digests only.
        with contextlib.redirect_stdout(sys.stderr):
            run_commands(root)
        print("\n".join(digest_lines(root)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
