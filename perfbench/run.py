#!/usr/bin/env python3
"""secrl benchmark: training, steady-state evaluation and PI tuning.

Run from the repository root:

    python3 perfbench/run.py --workload train-grid --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload eval-steady --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --workload pi-grid --seed 1 --seconds 1 --trace 0 --smoke

The benchmark imports ``secrl`` from ``src/`` next to this directory and
drives its public API from one process, one BLAS thread and no worker pool.
Every input (config file, frozen test cases, actor initialisation, tuning
seed) is generated from ``--seed``.

Each workload runs the whole pipeline the package exists for.  It sets up a
SEC-DDPG grid trainer, warms its replay buffer up to the first gradient
update and tops the ring up to a fixed 20,000 transitions, then repeats
rounds for ``--seconds``: train one ``Trainer.run`` chunk, write the
``save_trainer`` checkpoint that ``secrl train`` writes at the end of a run,
resume a fresh trainer from it, tune the grid PI cascade, and evaluate a
plain-DDPG actor, a SEC actor and the PI baselines on frozen test cases of
both plants.  Every end-to-end metric is thus measured on every workload,
as a median over samples spread across the run (the machine's speed drifts
within seconds).  The workload sets the sizes, and so which stage carries
the load:

* ``train-grid``: training at the tuned sizes (batch 261, critic 4x295,
  actor 2x25, float64).  Within the training chunks, critic and actor
  updates (``nn`` forward/backward and Adam) take most of the time; plant,
  SEC wrapper and noise take little.
* ``eval-steady``: deterministic rollouts over the 20 x 500-step
  steady-state cases of both plants, scored with ``steady_state_metric``.
  Per-step Python work dominates (plant step, SEC integrator, batch-1 actor
  forward, PI action).  The grid load is held 500 steps, so reuse of the
  plant propagator shows here; the motor plant, whose propagator is already
  built once, is the control.
* ``pi-grid``: ``tune_grid_cascade`` over its 36 candidates at a reduced
  validation length, then a rollout of the tuned cascade on the frozen
  stochastic load profile.  No networks, and the load changes on every step,
  so propagator reuse is bypassed and only a cheaper rebuild shows.

Outputs are checked (finite losses, bit-exact resume, metrics finite and in
[-1, 0], one steady-state row per segment, repeated units giving equal
digests); an operation that raises or fails a check counts as failed.

With ``--trace 1`` the package's public functions are wrapped with in-memory
spans (see ``tracing.py``) and the per-layer metrics are printed instead of
the end-to-end ones.  The first set-up and every other round run untraced,
so the tracing overhead and the equality of traced and untraced digests are
measured in the same run; the spans are written to ``perfbench/out/``.

The second to last line of standard output is a JSON report (machine, BLAS
threads, digests, checks, operation counts); the last line is
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import os

# Single-threaded BLAS, pinned before numpy is imported: with two threads on
# a two-core machine, timings swing several-fold from run to run.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import time  # noqa: E402

T_START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SECRL_MODULES = (
    "config", "checkpoint", "seeding", "sec", "nn.mlp", "ddpg.agent", "ddpg.train",
    "ddpg.noise", "ddpg.replay", "envs.grid", "envs.motor", "baselines.pi",
    "baselines.grid_cascade", "evaluation.experiment", "evaluation.testcases",
)

TRAIN_STEPS = 200_000  # config default horizon; runs stop long before it
RING = 20_000          # replay capacity: the smallest agent.buffer_size the config allows
SEGMENT_LENGTH = 500
IMPORT_PROBES = 5      # child interpreters that time the package import


@dataclass(frozen=True)
class Workload:
    """Sizes of one round; a run repeats rounds for ``--seconds``.

    Every round trains one chunk, writes a checkpoint, resumes from it,
    tunes the grid cascade and runs the next evaluation jobs, so each metric
    is a median over samples spread across the run.
    """

    name: str
    main: str            # stage carrying most of the round: train | eval | tune
    chunk_steps: int     # training steps per round, one Trainer.run call
    segments: int        # 500-step steady-state segments per evaluation case
    profile_steps: int   # grid load-profile rollout of the tuned cascade (0: none)
    tune_steps: int      # validation episode length per tuning candidate
    jobs_per_round: int = 0   # evaluation jobs per round, cycling (0: all)
    tunes_per_round: int = 1
    setups: int = 7      # set-ups per run; setup_s is their median plus imports
    config: tuple = ()   # extra config keys (toy sizes in smoke mode)


WORKLOADS = {
    w.name: w for w in (
        Workload("train-grid", "train", chunk_steps=100, segments=2, profile_steps=0,
                 tune_steps=50),
        Workload("eval-steady", "eval", chunk_steps=20, segments=20, profile_steps=0,
                 tune_steps=50, jobs_per_round=2, tunes_per_round=2),
        Workload("pi-grid", "tune", chunk_steps=20, segments=1, profile_steps=3000,
                 tune_steps=300),
    )
}

SMOKE_CONFIG = (
    ("agent.batch_size", 16), ("agent.critic.layers", 1), ("agent.critic.units", 16),
    ("agent.actor.layers", 1), ("agent.actor.units", 10),
)


def smoke(w: Workload) -> Workload:
    """Toy sizes: checks that everything runs, measures nothing useful."""
    return replace(w, chunk_steps=10, segments=1, profile_steps=w.profile_steps and 500,
                   tune_steps=5, setups=2, config=SMOKE_CONFIG)


class CheckFailed(Exception):
    """An output check of the benchmark did not hold."""


def digest(*objs) -> str:
    """sha256 over arrays (dtype, shape, bytes), containers, objects and reprs."""
    import numpy as np

    h = hashlib.sha256()

    def feed(o):
        if isinstance(o, np.ndarray):
            h.update(f"{o.dtype}{o.shape}".encode())
            h.update(np.ascontiguousarray(o).tobytes())
        elif isinstance(o, dict):
            h.update(b"{")
            for k in sorted(o, key=str):
                feed(k)
                feed(o[k])
            h.update(b"}")
        elif isinstance(o, (list, tuple)):
            h.update(b"[")
            for x in o:
                feed(x)
            h.update(b"]")
        elif hasattr(o, "__dict__"):
            feed(vars(o))
        else:
            h.update(repr(o).encode() + b";")

    for o in objs:
        feed(o)
    return h.hexdigest()


def median(values) -> float:
    return float(statistics.median(values))


# -- machine ---------------------------------------------------------------

def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def machine_info(np) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_config = blas.get("openblas configuration") or blas.get("name")
    except (KeyError, TypeError, AttributeError):
        blas_config = "unknown"
    threads = blas_threads()
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_config": blas_config,
        "blas_threads": threads,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "single_thread_blas": threads == 1 if threads is not None
        else os.environ.get("OPENBLAS_NUM_THREADS") == "1",
    }


# -- the run ---------------------------------------------------------------

@dataclass
class Setup:
    cfg: object
    trainer: object
    actors: dict      # (plant, variant) -> MlpParams
    action_dims: dict  # plant -> m
    cases: dict       # "grid" / "motor" / "profile" -> TestCase
    seconds: float


class Bench:
    def __init__(self, workload: Workload, seed: int, seconds: float, traced: bool, mods: dict):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.m = mods
        self.np = importlib.import_module("numpy")
        self.tracer = None
        if traced:
            from tracing import Tracer
            self.tracer = Tracer(mods)
        self.work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT))
        self.cfg_path = self.work / "config.yaml"
        self.ckpt_path = self.work / "checkpoint.npz"
        self.ops: dict[str, list[int]] = {}
        self.errors: list[str] = []
        self.digests: dict[str, str] = {}   # first digest of each repeated unit
        self.t: dict[str, list[float]] = {"setup": [], "checkpoint": [], "resume": []}
        # (stage, unit index) -> [(traced, seconds)] for training chunks, tuning
        # calls and evaluation jobs; the units of one key do equal work
        self.units: dict[tuple[str, int], list[tuple[bool, float]]] = {}
        self.gains = None
        self.jobs = None
        self.next_job = 0
        self.gemm_inputs = None
        self.gemm_s: list[float] = []

    # -- bookkeeping -------------------------------------------------------

    def op(self, kind: str, fn, *args):
        """Run one counted operation; None if it raised or failed a check."""
        rec = self.ops.setdefault(kind, [0, 0])
        rec[0] += 1
        try:
            return fn(*args)
        except Exception as exc:
            rec[1] += 1
            self.errors.append(f"{kind}: {type(exc).__name__}: {exc}")
            return None

    def repeat_check(self, kind: str, key: str, value: str) -> None:
        """A repeated unit must reproduce the first unit's digest."""
        first = self.digests.setdefault(key, value)
        if value != first:
            self.ops[kind][1] += 1
            self.errors.append(f"{kind}: digest {key} differs between repeats")

    def untraced(self):
        return self.tracer.off() if self.tracer else nullcontext()

    # -- inputs ----------------------------------------------------------

    def write_config(self) -> None:
        import yaml

        values = {
            "seed": self.seed,
            "out_dir": str(self.work),
            "env.kind": "grid",
            "agent.variant": "sec-ddpg",
            "train.steps": TRAIN_STEPS,
            "agent.buffer_size": RING,
            "experiment.testcase_seed": 1000 + self.seed,
            "experiment.segments": self.w.segments,
            "experiment.segment_length": SEGMENT_LENGTH,
            "experiment.pi_tune_seed": self.seed,
            **dict(self.w.config),
        }
        self.cfg_path.write_text(yaml.safe_dump(values, sort_keys=True))

    def build_trainer(self, cfg):
        m = self.m
        wrapped = m["evaluation.experiment"].build_training_env(cfg, "sec-ddpg", self.seed)
        width = m["sec"].actor_output_width(wrapped.env.action_dim, use_sec=True)
        agent_cfg = cfg.agent_config(wrapped.obs_dim, width)
        return m["ddpg.train"].Trainer(wrapped, agent_cfg, cfg.train_settings(), self.seed)

    def fill_ring(self, trainer) -> None:
        """Top the replay ring up to capacity with the warm-up's transitions,
        each scaled by a seeded factor near 1 so that no bytes repeat.  The
        ring stays full from then on, so every checkpoint has the same size
        however far training got."""
        np = self.np
        rng = np.random.default_rng(self.seed)
        buf = trainer.buffer
        real = buf.contents()
        experience = self.m["ddpg.replay"].Experience
        for k in range(buf.capacity - len(buf)):
            e = real[k % len(real)]
            f = 1.0 + 1e-3 * rng.standard_normal(3)
            buf.push(experience(e.obs * f[0], e.action * f[1], e.reward * f[2],
                                e.next_obs * f[0], e.terminal))

    def setup_once(self) -> Setup:
        m = self.m
        exp, tc = m["evaluation.experiment"], m["evaluation.testcases"]
        t0 = time.perf_counter()
        cfg = m["config"].parse_config(self.cfg_path)
        trainer = self.build_trainer(cfg)
        actors, dims = {}, {}
        for plant in ("grid", "motor"):
            env = exp.build_eval_env(cfg, plant)
            dims[plant] = env.action_dim
            for variant, use_sec in (("ddpg", False), ("sec-ddpg", True)):
                width = m["sec"].actor_output_width(env.action_dim, use_sec=use_sec)
                agent = m["ddpg.agent"].DdpgAgent(
                    cfg.agent_config(env.obs_dim, width),
                    m["seeding"].derive_rng(self.seed, m["seeding"].STREAM_INIT))
                actors[(plant, variant)] = agent.actor
        case_seed = cfg["experiment.testcase_seed"]
        segments, seg_len = cfg["experiment.segments"], cfg["experiment.segment_length"]
        radius = cfg["env.motor.reference_radius"] * cfg["env.motor.i_lim"]
        cases = {
            "grid": tc.gen_steadystate_testcase("grid", case_seed, segments, seg_len),
            "motor": tc.gen_steadystate_testcase("motor", case_seed + 1, segments, seg_len, radius),
        }
        if self.w.profile_steps:
            cases["profile"] = tc.gen_grid_testcase(case_seed + 2, self.w.profile_steps)
        # Replay warm-up: stop right before the first gradient update.
        acfg = trainer.agent.config
        first_update = -(-acfg.batch_size // acfg.train_freq) * acfg.train_freq
        trainer.run(until_step=first_update - 1)
        self.fill_ring(trainer)
        return Setup(cfg, trainer, actors, dims, cases, time.perf_counter() - t0)

    def setup_stage(self) -> Setup | None:
        """Repeated set-ups; when tracing, the first runs untraced so the
        warm-up digest also compares traced with untraced execution."""
        self.write_config()
        st = None
        for k in range(self.w.setups):
            with self.untraced() if k == 0 else nullcontext():
                st = self.op("setup", self.setup_once)
            if st is None:
                return None
            self.t["setup"].append(st.seconds)
            self.repeat_check("setup", "setup", digest(st.trainer.state_dict(), st.trainer.agent.actor))
        return st

    # -- training, checkpoints, resume ----------------------------------

    def check_losses(self, st: Setup) -> None:
        """Critic loss and actor fitness on a fresh batch are finite."""
        np = self.np
        agent_mod, mlp = self.m["ddpg.agent"], self.m["nn.mlp"]
        tr = st.trainer
        a = tr.agent
        with self.untraced():
            obs, act, rew, nxt, term = tr.buffer.sample(a.config.batch_size,
                                                        np.random.default_rng(tr.step))
            y = agent_mod.critic_targets(a, rew, nxt, term)
            q, _ = mlp.mlp_forward(a.critic, np.hstack([obs, act]))
            mu, _ = mlp.mlp_forward(a.actor, obs)
            q_mu, _ = mlp.mlp_forward(a.critic, np.hstack([obs, mu]))
        loss, fitness = float(np.mean((q[:, 0] - y) ** 2)), float(np.mean(q_mu))
        if not (np.isfinite(loss) and np.isfinite(fitness)):
            raise CheckFailed(f"non-finite critic loss {loss} or actor fitness {fitness}")

    def train_chunk(self, st: Setup) -> float:
        """One ``Trainer.run`` call of ``chunk_steps`` steps with updates on,
        like ``secrl train --until-step`` (no checkpoints inside the run, as
        ``train.checkpoint_every`` defaults to 0); returns its seconds."""
        tr = st.trainer
        start = tr.step
        t0 = time.perf_counter()
        tr.run(until_step=start + self.w.chunk_steps)
        dt = time.perf_counter() - t0
        if tr.step != start + self.w.chunk_steps:
            raise CheckFailed(f"training stopped at step {tr.step}, "
                              f"expected {start + self.w.chunk_steps}")
        self.check_losses(st)
        return dt

    def checkpoint_once(self, st: Setup) -> float:
        """The snapshot ``secrl train`` writes at the end of a run."""
        echo = json.loads(st.cfg.to_json())
        t0 = time.perf_counter()
        self.m["checkpoint"].save_trainer(self.ckpt_path, st.trainer, config_echo=echo)
        dt = time.perf_counter() - t0
        if not self.ckpt_path.is_file() or self.ckpt_path.stat().st_size == 0:
            raise CheckFailed("checkpoint file missing or empty")
        if len(st.trainer.buffer) != RING:
            raise CheckFailed(f"replay ring holds {len(st.trainer.buffer)}, expected {RING}")
        return dt

    def trainer_digest(self, tr) -> str:
        a = tr.agent
        return digest(a.actor, a.critic, a.actor_target, a.critic_target,
                      a.actor_opt, a.critic_opt, tr.state_dict())

    def resume_once(self, st: Setup) -> float:
        """Build a fresh trainer and load the last checkpoint into it; the
        result must equal the live trainer bit for bit."""
        t0 = time.perf_counter()
        fresh = self.build_trainer(st.cfg)
        self.m["checkpoint"].load_trainer_into(self.ckpt_path, fresh)
        dt = time.perf_counter() - t0
        if self.trainer_digest(fresh) != self.trainer_digest(st.trainer):
            raise CheckFailed("resumed trainer differs from the saved one")
        return dt

    # -- PI tuning -------------------------------------------------------

    def tune_once(self, st: Setup) -> float:
        np = self.np
        t0 = time.perf_counter()
        gains, report = self.m["baselines.grid_cascade"].tune_grid_cascade(
            st.cfg.grid_params(), seed=st.cfg["experiment.pi_tune_seed"], steps=self.w.tune_steps)
        dt = time.perf_counter() - t0
        scores = [t["score"] for t in report["trials"]]
        if len(scores) != 36:
            raise CheckFailed(f"tuning scored {len(scores)} candidates, expected 36")
        if not all(np.isfinite(s) and -1.0 <= s <= 0.0 for s in scores):
            raise CheckFailed("tuning score outside [-1, 0]")
        if not all(np.isfinite(v) and v > 0 for v in gains.as_dict().values()):
            raise CheckFailed(f"tuned gains not finite and positive: {gains}")
        self.repeat_check("tune", "tune", digest(gains.as_dict(), report["trials"]))
        self.gains = gains
        return dt

    # -- evaluation --------------------------------------------------------

    def eval_jobs(self, st: Setup) -> list[tuple]:
        m = self.m
        exp, cascade, pi = m["evaluation.experiment"], m["baselines.grid_cascade"], m["baselines.pi"]
        cfg = st.cfg
        jobs = []
        for plant in ("grid", "motor"):
            for variant in ("ddpg", "sec-ddpg"):
                policy = exp.AgentPolicy(st.actors[(plant, variant)], st.action_dims[plant],
                                         t_i=cfg["sec.t_i"], t_aw=cfg["sec.t_aw"])
                jobs.append((variant, policy, st.cases[plant]))
            controller = (cascade.GridCascadePolicy(cfg.grid_params(), self.gains)
                          if plant == "grid" else pi.MotorPiPolicy(cfg.motor_params()))
            jobs.append(("pi", exp.ControllerPolicy(controller), st.cases[plant]))
        if "profile" in st.cases:
            jobs.append(("pi", exp.ControllerPolicy(
                cascade.GridCascadePolicy(cfg.grid_params(), self.gains)), st.cases["profile"]))
        return jobs

    def rollout_job(self, cfg, policy, case) -> tuple[list, float]:
        np = self.np
        t0 = time.perf_counter()
        rows = self.m["evaluation.experiment"].evaluate_policy(cfg, policy, [case], run_seed=self.seed)
        dt = time.perf_counter() - t0
        values = [r["value"] for r in rows]
        if not all(np.isfinite(v) and -1.0 <= v <= 0.0 for v in values):
            raise CheckFailed(f"{case.case_id}: metric outside [-1, 0]")
        names = [r["metric_name"] for r in rows]
        if names.count("mean_reward") != 1:
            raise CheckFailed(f"{case.case_id}: expected one mean_reward row")
        if case.segment_length:
            segs = case.duration // case.segment_length
            if (names.count("steady_state_mean") != 1
                    or sum(n.startswith("segment_mean_") for n in names) != segs):
                raise CheckFailed(f"{case.case_id}: expected one steady-state row per segment")
        return rows, dt

    def eval_job(self, st: Setup, j: int) -> float | None:
        """One evaluation job; a repeat must reproduce the job's digest."""
        label, policy, case = self.jobs[j]
        res = self.op("rollout", self.rollout_job, st.cfg, policy, case)
        if res is None:
            return None
        self.repeat_check("rollout", f"eval/{j}", digest(label, res[0]))
        return res[1]

    # -- rounds ------------------------------------------------------------

    def unit(self, stage: str, idx: int, traced: bool, seconds: float) -> None:
        self.units.setdefault((stage, idx), []).append((traced, seconds))

    def jobs_covered(self) -> bool:
        """Every evaluation job has run (traced, when tracing)."""
        return all(any(tr or not self.tracer for tr, _ in self.units.get(("eval", j), []))
                   for j in range(len(self.jobs)))

    def round(self, st: Setup, k: int) -> bool:
        traced = self.tracer is not None and k % 2 == 1
        chunk_s = self.op("train", self.train_chunk, st)
        if chunk_s is None:
            return False
        self.unit("train", 0, traced, chunk_s)
        if k == 1:   # a fixed step, reached by a traced chunk when tracing
            self.digests["train"] = digest(st.trainer.agent.actor, st.trainer.agent.critic)
        ckpt_s = self.op("checkpoint", self.checkpoint_once, st)
        if ckpt_s is None:
            return False
        self.t["checkpoint"].append(ckpt_s)
        resume_s = self.op("resume", self.resume_once, st)
        if resume_s is not None:
            self.t["resume"].append(resume_s)
        for _ in range(self.w.tunes_per_round):
            tune_s = self.op("tune", self.tune_once, st)
            if tune_s is None:
                return False
            self.unit("tune", 0, traced, tune_s)
        if self.jobs is None:
            self.jobs = self.eval_jobs(st)
        for _ in range(self.w.jobs_per_round or len(self.jobs)):
            j = self.next_job
            self.next_job = (j + 1) % len(self.jobs)
            job_s = self.eval_job(st, j)
            if job_s is None:
                return False
            self.unit("eval", j, traced, job_s)
        if traced:
            self.time_gemm(st)
        return True

    def run(self) -> dict:
        """Set up, then rounds for --seconds: another round starts while it
        is expected to end in time (and always until there are two rounds
        and every evaluation job has run).  When tracing, even rounds run
        untraced: they are the reference for the tracing overhead and for
        the digests of the traced rounds."""
        ok = False
        if self.tracer:
            self.tracer.install()
        try:
            st = self.setup_stage()
            start = time.perf_counter()
            k = 0
            while st is not None:
                elapsed = time.perf_counter() - start
                if k >= 2 and self.jobs_covered() and elapsed * (k + 1) / k > self.seconds:
                    break
                with self.untraced() if k % 2 == 0 else nullcontext():
                    ok = self.round(st, k)
                if not ok:
                    break
                k += 1
        finally:
            if self.tracer:
                self.tracer.uninstall()
        ok = ok and all(self.t.values())   # every end-to-end metric has samples
        if ok:
            jobs = [self.digests.pop(f"eval/{j}") for j in range(len(self.jobs))]
            self.digests["eval"] = digest(jobs)
        return {"ok": ok, "setup": st}

    # -- kernel accounting -------------------------------------------------

    def time_gemm(self, st: Setup) -> None:
        """Bare GEMM at the critic's hidden-layer shape, sampled in every
        traced round so that it sees the machine state the spans see."""
        if self.gemm_inputs is None:
            b = st.trainer.agent.config.batch_size
            units = max(st.trainer.agent.critic.layer_sizes[1:-1])
            rng = self.np.random.default_rng(self.seed)
            self.gemm_inputs = (rng.standard_normal((b, units)), rng.standard_normal((units, units)))
        x, w = self.gemm_inputs
        for _ in range(10):
            t0 = time.perf_counter()
            x @ w.T
            self.gemm_s.append(time.perf_counter() - t0)

    def kernel_accounting(self, st: Setup) -> dict:
        """Critic FLOPs and bytes per forward and backward at the training
        batch, computed from the layer sizes, and the measured GEMM rate."""
        sizes = st.trainer.agent.critic.layer_sizes
        b = st.trainer.agent.config.batch_size
        pairs = list(zip(sizes[:-1], sizes[1:]))
        fwd = sum(2 * b * i * o for i, o in pairs)
        fwd_bytes = 8 * sum(i * o + o + b * i + 2 * b * o for i, o in pairs)
        bwd_bytes = 8 * sum(2 * i * o + o + 3 * b * o + 2 * b * i for i, o in pairs)
        x, w = self.gemm_inputs
        return {
            "critic_layer_sizes": sizes, "batch": b,
            "critic_forward_flop": fwd, "critic_backward_flop": 2 * fwd,
            "critic_forward_bytes": fwd_bytes, "critic_backward_bytes": bwd_bytes,
            "gemm_shape": [*x.shape, w.shape[0]],
            "gemm_gflops": 2 * x.shape[0] * x.shape[1] * w.shape[0] / median(self.gemm_s) / 1e9,
            "label": "flop and byte counts are computed from layer sizes, not measured",
        }

    def trace_overhead(self) -> float:
        """Main-stage units run both ways: median traced time over median
        untraced time, minus 1."""
        untraced = traced = 0.0
        for (stage, _), samples in self.units.items():
            on = [s for tr, s in samples if tr]
            off = [s for tr, s in samples if not tr]
            if stage == self.w.main and on and off:
                untraced += median(off)
                traced += median(on)
        return traced / untraced - 1.0

    def unit_median(self, stage: str, idx: int = 0) -> float:
        return median([s for _, s in self.units[(stage, idx)]])

    def e2e_metrics(self, import_s: float) -> dict:
        t = self.t
        # Jobs differ in cost per step, so take each job's median time.
        steps = sum(case.duration for _, _, case in self.jobs)
        eval_s = sum(self.unit_median("eval", j) for j in range(len(self.jobs)))
        return {
            "setup_s": (import_s + median(t["setup"]), "s"),
            "train_steps_per_s": (self.w.chunk_steps / self.unit_median("train"), "1/s"),
            "checkpoint_write_s": (median(t["checkpoint"]), "s"),
            "resume_s": (median(t["resume"]), "s"),
            "eval_steps_per_s": (steps / eval_s, "1/s"),
            "tune_s": (self.unit_median("tune"), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }


def load_secrl() -> dict:
    sys.path.insert(0, str(SRC))
    return {name: importlib.import_module(f"secrl.{name}") for name in SECRL_MODULES}


IMPORT_PROBE = """\
import importlib, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import numpy
for name in sys.argv[2:]:
    importlib.import_module("secrl." + name)
print(time.perf_counter() - t0)
"""


def import_seconds() -> list[float]:
    """Import time of numpy and the package in fresh interpreters, which
    inherit the pinned thread variables; one in-process import is a single
    sample and too noisy to gate on."""
    times = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC), *SECRL_MODULES],
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="rounds start until this many seconds have passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy sizes, for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "secrl" / "__init__.py").is_file():
        print(f"error: secrl sources not found under {SRC}", file=sys.stderr)
        return 2
    try:
        mods = load_secrl()
        import numpy as np
    except ImportError as exc:
        print(f"error: cannot import secrl: {exc}", file=sys.stderr)
        return 2
    first_import_s = time.perf_counter() - T_START

    workload = WORKLOADS[args.workload]
    if args.smoke:
        workload = smoke(workload)
    machine = machine_info(np)
    OUT.mkdir(exist_ok=True)
    imports = [] if args.trace else import_seconds()
    bench = Bench(workload, args.seed, args.seconds, bool(args.trace), mods)
    try:
        outcome = bench.run()
    finally:
        ckpt_mb = (bench.ckpt_path.stat().st_size / 1e6 if bench.ckpt_path.is_file() else None)
        shutil.rmtree(bench.work, ignore_errors=True)

    attempted = sum(a for a, _ in bench.ops.values())
    failed = sum(f for _, f in bench.ops.values())
    report = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "machine": machine,
        "digests": bench.digests,
        "import_s": {"in_process": first_import_s, "probes": imports},
        "tuned_gains": bench.gains.as_dict() if bench.gains is not None else None,
        "operations": {k: {"attempted": a, "failed": f} for k, (a, f) in sorted(bench.ops.items())},
        "failed_fraction": failed / max(attempted, 1),
        "errors": bench.errors[:20],
        "samples_s": {**bench.t, **{f"{st}/{j}": [x for _, x in v]
                                    for (st, j), v in bench.units.items()}},
        "samples": {**{k: len(v) for k, v in bench.t.items()},
                    **{stage: sum(len(v) for (st, _), v in bench.units.items() if st == stage)
                       for stage in ("train", "tune", "eval")}},
    }
    correct = failed == 0 and outcome["ok"]
    if not machine["single_thread_blas"]:
        correct = False
        report["invalid"] = "BLAS is not single-threaded"

    metrics: dict = {}
    if outcome["ok"]:
        if args.trace:
            from tracing import LAYER_METRICS, layer_metrics

            kernel = bench.kernel_accounting(outcome["setup"])
            spans_path = OUT / f"spans-{workload.name}-seed{args.seed}.npz"
            bench.tracer.write(spans_path)
            report.update(kernel=kernel, spans=str(spans_path.relative_to(ROOT)),
                          span_count=len(bench.tracer.spans),
                          trace_overhead_fraction=bench.trace_overhead(),
                          layer_map={k: {"moves": v[2], "workload": v[3]}
                                     for k, v in LAYER_METRICS.items()})
            values = layer_metrics(bench.tracer, kernel, {
                "checkpoint_file_mb": ckpt_mb,
                "trace_overhead_fraction": bench.trace_overhead(),
            })
            metrics = {k: {"value": values[k], "unit": LAYER_METRICS[k][0]} for k in LAYER_METRICS}
        else:
            metrics = {k: {"value": v, "unit": u}
                       for k, (v, u) in bench.e2e_metrics(median(imports)).items()}
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0 if outcome["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
