"""Files an earlier version of the package wrote still load, to the values
that version read from them.

``tests/data`` holds, written by the version before the package read
npz files with its own member reader (``np.load`` read them then):

- ``testcase-motor-steadystate-seed4.npz``: ``gen_steadystate_testcase(
  "motor", 4, segments=2, segment_length=10)``, deflated by ``TestCase.save``;
- ``agent.npz``: an agent of 3 features, 2 actions, actor [3] and critic
  [4], after two critic and actor updates, stored by ``save_agent``;
- ``checkpoint-deflated.npz``: the ``save_trainer`` snapshot of
  ``make_sec_grid_trainer(**TINY)`` after its 60 steps, its members
  re-saved with ``np.savez_compressed`` as the first versions wrote them.

Each digest below was taken from the load of that earlier version."""

import hashlib
import json
from pathlib import Path

import pytest
from test_byte_flips import _learner
from test_train import make_sec_grid_trainer

from secrl.checkpoint import _encode, load_agent, load_trainer_into
from secrl.evaluation.testcases import TestCase

DATA = Path(__file__).resolve().parent / "data"
TINY = dict(seed=14, steps=60, episode_steps=30, buffer_capacity=8,
            actor_hidden=[3], critic_hidden=[4])


def _digest(*parts) -> str:
    """sha256 over ``parts``: bytes as they are, anything else as json."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else json.dumps(part, default=_encode).encode())
    return h.hexdigest()


def digest_test_case(path) -> str:
    case = TestCase.load(path)
    return _digest([case.kind, case.seed, case.duration, case.segment_length],
                   str(case.payload.dtype), list(case.payload.shape), case.payload.tobytes())


def digest_agent(path) -> str:
    agent, extra = load_agent(path)
    return _digest(*_learner(agent), extra)


def digest_snapshot(path) -> str:
    trainer = make_sec_grid_trainer(**TINY)
    load_trainer_into(path, trainer)
    # The state holds the replay rows, cursor and count.
    return _digest(*_learner(trainer.agent), trainer.state_dict())


@pytest.mark.parametrize("name, digest, expected", [
    ("testcase-motor-steadystate-seed4.npz", digest_test_case,
     "ae4e84f0dad3405fbf9c2f897d2fc4c5d916e4098bcea8b6eae40d59c8a0fc9f"),
    ("agent.npz", digest_agent,
     "c004c81267e2842d9f1d39ed33eb6fd9dc9a6ecb85040cb37b14be31477a64cd"),
    ("checkpoint-deflated.npz", digest_snapshot,
     "9bdeb3e4723b0a725df8477aeadfc0096c708d954ac57010b9b187093c2fe7ea"),
])
def test_file_of_an_earlier_version_loads_to_its_recorded_digest(name, digest, expected):
    assert digest(DATA / name) == expected
