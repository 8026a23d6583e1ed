"""In-memory span tracing around calls into the secrl layers.

The tracer replaces public functions and methods of the package with thin
wrappers (at the attribute the caller looks up, so ``critic_update`` is
wrapped where ``secrl.ddpg.train`` imports it) and restores them on
``uninstall``.  Every call records one span: name, start, end, parent span
and the time its child spans covered, so self time is the span minus its
children.  Spans stay in memory and are written out once, at the end.

``LAYER_METRICS`` names each per-layer metric, its unit, which end-to-end
metric it moves and on which workload; ``layer_metrics`` computes them from
the recorded spans and counters.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# name: (unit, better, end-to-end metric it moves, workload where it shows)
LAYER_METRICS = {
    "nn.critic_forward_ms": ("ms", "lower", "train_steps_per_s", "train-grid"),
    "nn.critic_backward_ms": ("ms", "lower", "train_steps_per_s", "train-grid"),
    "nn.input_cotangent_ms": ("ms", "lower", "train_steps_per_s", "train-grid"),
    "nn.optimizer_step_ms": ("ms", "lower", "train_steps_per_s", "train-grid"),
    "nn.critic_gflops": ("GFLOP/s", "higher", "train_steps_per_s", "train-grid"),
    "nn.gemm_peak_gflops": ("GFLOP/s", "higher", "train_steps_per_s", "train-grid"),
    "nn.critic_gemm_share": ("fraction", "higher", "train_steps_per_s", "train-grid"),
    "nn.actor_forward_us": ("us", "lower", "eval_steps_per_s", "eval-steady"),
    "ddpg.critic_update_ms": ("ms", "lower", "train_steps_per_s", "train-grid"),
    "ddpg.actor_update_ms": ("ms", "lower", "train_steps_per_s", "train-grid"),
    "ddpg.soft_update_ms": ("ms", "lower", "train_steps_per_s", "train-grid"),
    "ddpg.replay_sample_us": ("us", "lower", "train_steps_per_s", "train-grid"),
    "ddpg.replay_push_us": ("us", "lower", "train_steps_per_s", "train-grid"),
    "ddpg.noise_us": ("us", "lower", "train_steps_per_s", "train-grid"),
    "ddpg.update_tick_ms_p50": ("ms", "lower", "train_steps_per_s", "train-grid"),
    "ddpg.update_tick_ms_p99": ("ms", "lower", "train_steps_per_s", "train-grid"),
    "ddpg.update_tick_samples": ("count", "higher", "train_steps_per_s", "train-grid"),
    "ddpg.updates": ("count", "higher", "train_steps_per_s", "train-grid"),
    "sec.wrapper_self_us": ("us", "lower", "eval_steps_per_s", "eval-steady"),
    "sec.apply_us": ("us", "lower", "eval_steps_per_s", "eval-steady"),
    "sec.antiwindup_fraction": ("fraction", "lower", "eval_steps_per_s", "eval-steady"),
    "sec.clip_fraction": ("fraction", "lower", "eval_steps_per_s", "eval-steady"),
    "envs.grid.step_us": ("us", "lower", "eval_steps_per_s,tune_s", "eval-steady,pi-grid"),
    "envs.grid.propagator_builds_per_step": (
        "1/step", "lower", "eval_steps_per_s,tune_s", "eval-steady,pi-grid"),
    "envs.motor.step_us": ("us", "lower", "eval_steps_per_s", "eval-steady"),
    "baselines.cascade_action_us": ("us", "lower", "tune_s,eval_steps_per_s", "pi-grid,eval-steady"),
    "baselines.motor_pi_action_us": ("us", "lower", "eval_steps_per_s", "eval-steady"),
    "baselines.validation_score_s": ("s", "lower", "tune_s", "pi-grid"),
    "baselines.tune_candidates": ("count", "lower", "tune_s", "pi-grid"),
    "evaluation.rollout_self_us": ("us", "lower", "eval_steps_per_s", "eval-steady"),
    "evaluation.scoring_ms": ("ms", "lower", "eval_steps_per_s", "eval-steady"),
    "evaluation.testcase_gen_s": ("s", "lower", "setup_s", "all"),
    "config.parse_ms": ("ms", "lower", "setup_s", "all"),
    "checkpoint.save_trainer_s": ("s", "lower", "checkpoint_write_s", "train-grid"),
    "checkpoint.load_trainer_s": ("s", "lower", "resume_s", "train-grid"),
    "checkpoint.file_mb": ("MB", "lower", "checkpoint_write_s,resume_s", "train-grid"),
    "checkpoint.write_mb_per_s": ("MB/s", "higher", "checkpoint_write_s", "train-grid"),
    "trace.overhead_fraction": ("fraction", "lower", "all", "all"),
}


def _net_kind(params, x) -> str:
    """'critic' for value networks, 'actor_b1' for a single observation
    ``x``, else 'actor' (``x`` None: any batch)."""
    if params.output_activation == "linear":
        return "critic"
    return "actor_b1" if x is not None and np.ndim(x) == 1 else "actor"


class Tracer:
    """Wraps the package's public entry points and records spans."""

    def __init__(self, secrl_modules: dict):
        self.spans: list[list] = []   # [name, start, end, parent, child_time]
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._originals: list[tuple] = []
        self._targets = self._target_list(secrl_modules)

    # -- wrapping ------------------------------------------------------

    def _target_list(self, m: dict) -> list[tuple]:
        """(owner, attribute, span name or namer, counter hook)."""
        train, agent, exp = m["ddpg.train"], m["ddpg.agent"], m["evaluation.experiment"]
        grid, cascade = m["envs.grid"], m["baselines.grid_cascade"]
        return [
            (train.Trainer, "run", "ddpg.train_run", None),
            (train, "critic_update", "ddpg.critic_update", None),
            (train, "actor_update", "ddpg.actor_update", None),
            (train, "soft_update", "ddpg.soft_update", None),
            (m["ddpg.noise"].OuNoise, "step", "ddpg.noise", None),
            (m["ddpg.replay"].ReplayBuffer, "push", "ddpg.replay_push", None),
            (m["ddpg.replay"].ReplayBuffer, "sample", "ddpg.replay_sample", None),
            (agent.DdpgAgent, "act", "ddpg.act", None),
            (agent, "mlp_forward", lambda a: "nn.forward." + _net_kind(a[0], a[1]), None),
            (agent, "mlp_backward", lambda a: "nn.backward." + _net_kind(a[0], a[2]), None),
            (agent, "input_cotangent", "nn.input_cotangent", None),
            (agent, "optimizer_step", lambda a: "nn.optimizer_step." + _net_kind(a[1], None), None),
            (exp, "mlp_forward", lambda a: "nn.forward." + _net_kind(a[0], a[1]), None),
            (m["sec"].SecActionWrapper, "step", "sec.wrapper", None),
            (m["sec"], "sec_apply", "sec.apply", self._count_sec),
            (grid.GridEnv, "step", "envs.grid.step", None),
            (m["envs.motor"].MotorEnv, "step", "envs.motor.step", None),
            (grid, "LtiStepper", "envs.grid.propagator_build", None),
            (cascade.GridCascadePolicy, "action", "baselines.cascade_action", None),
            (m["baselines.pi"].MotorPiPolicy, "action", "baselines.motor_pi_action", None),
            (cascade, "validation_score", "baselines.validation_score", None),
            (cascade, "tune_grid_cascade", "baselines.tune", None),
            (exp.AgentPolicy, "act", "evaluation.policy_act", None),
            (exp.ControllerPolicy, "act", "evaluation.policy_act", None),
            (exp, "rollout", "evaluation.rollout", self._count_rollout),
            (exp, "mean_task_reward", "evaluation.scoring", None),
            (exp, "steady_state_metric", "evaluation.scoring", None),
            (exp, "evaluate_policy", "evaluation.evaluate_policy", None),
            (m["evaluation.testcases"], "gen_steadystate_testcase", "evaluation.testcase_gen", None),
            (m["evaluation.testcases"], "gen_grid_testcase", "evaluation.testcase_gen", None),
            (m["config"], "parse_config", "config.parse", None),
            (m["checkpoint"], "save_trainer", "checkpoint.save_trainer", None),
            (m["checkpoint"], "load_trainer_into", "checkpoint.load_trainer", None),
        ]

    def _wrap(self, fn, name, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        namer = name if callable(name) else None

        def traced(*args, **kwargs):
            span = [namer(args) if namer else name, 0.0, 0.0, stack[-1] if stack else -1, 0.0]
            idx = len(spans)
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = end = clock()
                stack.pop()
                if stack:
                    spans[stack[-1]][4] += end - span[1]
            if hook is not None:
                hook(args, result)
                if stack:  # the hook's own time is not the caller's self time
                    spans[stack[-1]][4] += clock() - end
            return result

        return traced

    def install(self) -> None:
        if self._originals:
            return
        for owner, attr, name, hook in self._targets:
            fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._originals.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, hook))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._originals):
            setattr(owner, attr, fn)
        self._originals = []

    @contextmanager
    def off(self):
        """Run a block with the original, unwrapped functions."""
        installed = bool(self._originals)
        self.uninstall()
        try:
            yield
        finally:
            if installed:
                self.install()

    # -- counters --------------------------------------------------------

    def _add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value

    def _count_sec(self, args, result) -> None:
        u_raw, state = args[0], args[1]
        m = state.zeta.shape[0]
        unclipped = u_raw[:m] + state.zeta + state.t_i * u_raw[m:]
        self._add("sec.antiwindup", float(np.any(np.abs(unclipped) > 1.0)))
        self._add("sec.raw_clipped", float(np.any(np.abs(u_raw) >= 1.0)))

    def _count_rollout(self, args, result) -> None:
        self._add("evaluation.rollout_steps", float(args[2].duration))

    # -- output ----------------------------------------------------------

    def by_name(self) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """name -> (durations, self times) in seconds."""
        groups: dict[str, list] = {}
        for name, t0, t1, _, child in self.spans:
            groups.setdefault(name, []).append((t1 - t0, t1 - t0 - child))
        return {k: (np.array([d for d, _ in v]), np.array([s for _, s in v]))
                for k, v in groups.items()}

    def update_ticks(self) -> np.ndarray:
        """Wall time from each replay sample to the end of its two soft updates."""
        ticks, start, soft = [], None, 0
        for name, t0, t1, _, _ in self.spans:
            if name == "ddpg.replay_sample":
                start, soft = t0, 0
            elif name == "ddpg.soft_update" and start is not None:
                soft += 1
                if soft == 2:
                    ticks.append(t1 - start)
                    start = None
        return np.array(ticks)

    def write(self, path: Path) -> None:
        names = sorted({s[0] for s in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        np.savez_compressed(
            path,
            names=np.array(names),
            name_id=np.array([ids[s[0]] for s in self.spans], dtype=np.int32),
            start=np.array([s[1] for s in self.spans]),
            end=np.array([s[2] for s in self.spans]),
            parent=np.array([s[3] for s in self.spans], dtype=np.int64),
            child_time=np.array([s[4] for s in self.spans]),
        )


def layer_metrics(tracer: Tracer, kernel: dict, extra: dict) -> dict:
    """Per-layer metrics from the spans; ``kernel`` holds computed FLOPs and
    the measured bare GEMM rate, ``extra`` the values measured outside spans."""
    g = tracer.by_name()
    c = tracer.counts

    def med(name, scale):
        return float(np.median(g[name][0])) * scale

    def count(name):
        return len(g[name][0]) if name in g else 0

    fwd_ms = med("nn.forward.critic", 1e3)
    bwd_ms = med("nn.backward.critic", 1e3)
    flops = kernel["critic_forward_flop"] + kernel["critic_backward_flop"]
    ticks = tracer.update_ticks()
    sec_calls = count("sec.apply")
    rollout_self = float(np.sum(g["evaluation.rollout"][1]))
    out = {
        "nn.critic_forward_ms": fwd_ms,
        "nn.critic_backward_ms": bwd_ms,
        "nn.input_cotangent_ms": med("nn.input_cotangent", 1e3),
        "nn.optimizer_step_ms": med("nn.optimizer_step.critic", 1e3),
        "nn.critic_gflops": flops / ((fwd_ms + bwd_ms) * 1e-3) / 1e9,
        "nn.gemm_peak_gflops": kernel["gemm_gflops"],
        "nn.critic_gemm_share": (flops / (kernel["gemm_gflops"] * 1e9)) / ((fwd_ms + bwd_ms) * 1e-3),
        "nn.actor_forward_us": med("nn.forward.actor_b1", 1e6),
        "ddpg.critic_update_ms": med("ddpg.critic_update", 1e3),
        "ddpg.actor_update_ms": med("ddpg.actor_update", 1e3),
        "ddpg.soft_update_ms": med("ddpg.soft_update", 1e3),
        "ddpg.replay_sample_us": med("ddpg.replay_sample", 1e6),
        "ddpg.replay_push_us": med("ddpg.replay_push", 1e6),
        "ddpg.noise_us": med("ddpg.noise", 1e6),
        "ddpg.update_tick_ms_p50": float(np.percentile(ticks, 50)) * 1e3,
        "ddpg.update_tick_ms_p99": float(np.percentile(ticks, 99)) * 1e3,
        "ddpg.update_tick_samples": len(ticks),
        "ddpg.updates": count("ddpg.critic_update"),
        "sec.wrapper_self_us": float(np.median(g["sec.wrapper"][1])) * 1e6,
        "sec.apply_us": med("sec.apply", 1e6),
        "sec.antiwindup_fraction": c.get("sec.antiwindup", 0.0) / sec_calls,
        "sec.clip_fraction": c.get("sec.raw_clipped", 0.0) / sec_calls,
        "envs.grid.step_us": med("envs.grid.step", 1e6),
        "envs.grid.propagator_builds_per_step":
            count("envs.grid.propagator_build") / count("envs.grid.step"),
        "envs.motor.step_us": med("envs.motor.step", 1e6),
        "baselines.cascade_action_us": med("baselines.cascade_action", 1e6),
        "baselines.motor_pi_action_us": med("baselines.motor_pi_action", 1e6),
        "baselines.validation_score_s": med("baselines.validation_score", 1.0),
        "baselines.tune_candidates": count("baselines.validation_score") / count("baselines.tune"),
        "evaluation.rollout_self_us": rollout_self / c["evaluation.rollout_steps"] * 1e6,
        "evaluation.scoring_ms":
            float(np.sum(g["evaluation.scoring"][0])) / count("evaluation.rollout") * 1e3,
        "evaluation.testcase_gen_s":
            float(np.sum(g["evaluation.testcase_gen"][0])) / count("config.parse"),
        "config.parse_ms": med("config.parse", 1e3),
        "checkpoint.save_trainer_s": med("checkpoint.save_trainer", 1.0),
        "checkpoint.load_trainer_s": med("checkpoint.load_trainer", 1.0),
    }
    out["checkpoint.file_mb"] = extra["checkpoint_file_mb"]
    out["checkpoint.write_mb_per_s"] = extra["checkpoint_file_mb"] / out["checkpoint.save_trainer_s"]
    out["trace.overhead_fraction"] = extra["trace_overhead_fraction"]
    return out
