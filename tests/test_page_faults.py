"""Training processes keep freed memory: a fresh ``secrl train`` process at
the tuned network sizes takes no page-fault storm per update tick."""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

# Runs `secrl train` through cli.main and records the process's minor page
# faults at the start of every critic update.
SCRIPT = """
import importlib, json, resource, sys
from secrl import cli

train = importlib.import_module("secrl.ddpg.train")

faults = []
update = train.critic_update

def counted(*args, **kwargs):
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
    return update(*args, **kwargs)

train.critic_update = counted
code = cli.main(["train", "--out", sys.argv[1], "--seed", "1",
                 "--override", "env.kind=grid", "--override", "agent.variant=sec-ddpg",
                 "--override", "train.steps=350"])
print(json.dumps({"code": code, "faults": faults}))
"""

WARM_TICKS = 10


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt thresholds are glibc's")
def test_train_update_ticks_take_no_page_fault_storm(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path / "run")], env=env,
                         capture_output=True, text=True, timeout=300, check=True)
    record = json.loads(out.stdout.strip().splitlines()[-1])
    assert record["code"] == 0
    faults = record["faults"][WARM_TICKS:]
    ticks = len(faults) - 1
    assert ticks >= 20
    per_tick = (faults[-1] - faults[0]) / ticks
    # Under glibc's default thresholds this reads about 4,950.
    assert per_tick < 100, per_tick
