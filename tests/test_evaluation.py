"""Harness: frozen test cases, metrics with window masking, aggregation."""

import numpy as np
import pytest

from secrl import ConfigurationError
from secrl.envs.grid import GridEnv, GridParams
from secrl.evaluation.metrics import (
    Trajectory,
    box_stats,
    mean_task_reward,
    per_step_rewards,
    steady_state_metric,
)
from secrl.evaluation.testcases import (
    TestCase,
    gen_grid_testcase,
    gen_motor_profile,
    gen_steadystate_testcase,
)


def make_traj(kind, reference, measured, limit):
    n, d = reference.shape
    return Trajectory(
        kind=kind, limit=limit, reference=reference, measured=measured,
        raw_action=np.zeros((n, d)), applied_action=np.zeros((n, d)),
    )


class TestCases:
    def test_grid_transient_case_properties(self):
        case = gen_grid_testcase(seed=7, steps=100_000)
        assert case.duration == 100_000
        assert len(case.payload) == 100_000
        assert case.payload.min() >= 14.0
        assert case.payload.max() <= 200.0

    def test_grid_case_reproducible(self):
        a = gen_grid_testcase(seed=9, steps=5000)
        b = gen_grid_testcase(seed=9, steps=5000)
        assert np.array_equal(a.payload, b.payload)
        c = gen_grid_testcase(seed=10, steps=5000)
        assert not np.array_equal(a.payload, c.payload)

    def test_grid_case_replays_live_loads_at_its_dt(self):
        p = GridParams(dt=2e-4)
        case = gen_grid_testcase(seed=12, steps=400, dt=p.dt)
        env = GridEnv(p, seed=12)
        env.reset(seed=12)
        live = [env.step(np.zeros(3))[3]["r_load"] for _ in range(400)]
        assert case.payload.tolist() == live
        assert not np.array_equal(gen_grid_testcase(seed=12, steps=400).payload, case.payload)

    def test_steadystate_grid_case_structure(self):
        case = gen_steadystate_testcase("grid", seed=11)
        assert case.duration == 10_000
        assert case.segment_length == 500
        values = case.payload.reshape(20, 500)
        assert np.all(values == values[:, :1])  # constant within segments
        segs = values[:, 0]
        assert len(np.unique(segs)) == 20
        assert segs.min() >= 14.0 and segs.max() <= 200.0
        # Stratified: one sample per equal-width bin across [14, 200].
        bins = np.floor((np.sort(segs) - 14.0) / ((200.0 - 14.0) / 20)).astype(int)
        assert np.array_equal(np.sort(bins), np.arange(20))

    def test_steadystate_motor_case_structure(self):
        case = gen_steadystate_testcase("motor", seed=12)
        assert case.payload.shape == (10_000, 2)
        refs = case.payload.reshape(20, 500, 2)
        assert np.all(refs == refs[:, :1, :])
        norms = np.linalg.norm(refs[:, 0, :], axis=1)
        assert np.all(norms <= 0.9 * 20.0 + 1e-12)

    def test_motor_profile_20_segments_in_10000_steps(self):
        case = gen_motor_profile(seed=13, steps=10_000)
        refs = case.payload.reshape(-1, 500, 2)
        assert refs.shape[0] == 20

    def test_case_save_load_roundtrip(self, tmp_path):
        case = gen_steadystate_testcase("motor", seed=14)
        case.save(tmp_path / "case.npz")
        loaded = TestCase.load(tmp_path / "case.npz")
        assert loaded.kind == case.kind
        assert loaded.segment_length == case.segment_length
        assert np.array_equal(loaded.payload, case.payload)

    def test_motor_profile_payload_is_the_steady_state_payload(self):
        for seed, segments in ((13, 20), (5, 3)):
            profile = gen_motor_profile(seed, steps=segments * 400, segment_length=400,
                                        motor_ref_radius=15.0)
            steady = gen_steadystate_testcase("motor", seed, segments, 400, 15.0)
            assert (profile.kind, profile.duration) == ("motor-reference-profile", segments * 400)
            assert profile.payload.tobytes() == steady.payload.tobytes()

    def test_invalid_construction_rejected(self):
        with pytest.raises(ConfigurationError):
            TestCase("grid-steadystate", 0, 999, 500, np.zeros(999))
        with pytest.raises(ConfigurationError):
            gen_motor_profile(seed=1, steps=999)


class TestMetrics:
    def test_perfect_tracking_scores_zero(self):
        ref = np.tile([100.0, 0.0, 0.0], (500, 1))
        traj = make_traj("grid", ref, ref.copy(), limit=250.0)
        assert mean_task_reward(traj) == 0.0

    def test_grid_full_scale_error_scores_one_third(self):
        ref = np.tile([100.0, 0.0, 0.0], (400, 1))
        meas = ref - np.array([250.0, 0.0, 0.0])
        traj = make_traj("grid", ref, meas, limit=250.0)
        assert mean_task_reward(traj) == pytest.approx(-1.0 / 3.0, abs=1e-12)

    def test_window_masking_ignores_transient_prefix(self):
        # Error only in the first 100 steps of each grid segment: the
        # steady-state metric must be exactly zero.
        n, seg, skip = 10_000, 500, 100
        ref = np.tile([100.0, 0.0, 0.0], (n, 1))
        meas = ref.copy()
        for s in range(n // seg):
            meas[s * seg: s * seg + skip, 0] -= 80.0
        traj = make_traj("grid", ref, meas, limit=250.0)
        seg_means, overall = steady_state_metric(traj, seg, skip=skip)
        assert np.array_equal(seg_means, np.zeros(n // seg))
        assert overall == 0.0
        assert mean_task_reward(traj) < 0.0  # the transient is not free

    def test_window_accounting_motor_default(self):
        n, seg = 10_000, 500
        ref = np.zeros((n, 2))
        meas = np.ones((n, 2))
        traj = make_traj("motor", ref, meas, limit=20.0)
        seg_means, overall = steady_state_metric(traj, seg)
        assert len(seg_means) == 20
        # Constant error: windowing changes nothing, value = -sqrt(1/20).
        assert overall == pytest.approx(-np.sqrt(1.0 / 20.0), rel=1e-12)

    def test_segment_count_mismatch_rejected(self):
        traj = make_traj("grid", np.zeros((999, 3)), np.zeros((999, 3)), 250.0)
        with pytest.raises(ConfigurationError):
            steady_state_metric(traj, 500)

    def test_per_step_rewards_match_hand_values(self):
        ref = np.array([[10.0, 0.0]])
        meas = np.array([[10.0, -20.0]])
        traj = make_traj("motor", ref, meas, limit=20.0)
        assert per_step_rewards(traj)[0] == pytest.approx(-0.5, abs=1e-12)

    def test_error_ratio_saturates_at_limit(self):
        ref = np.array([[0.0, 0.0]])
        meas = np.array([[100.0, 0.0]])  # five times the limit
        traj = make_traj("motor", ref, meas, limit=20.0)
        assert per_step_rewards(traj)[0] == pytest.approx(-0.5, abs=1e-12)


def _former_per_step_rewards(traj):
    ratio = np.minimum(np.abs(traj.reference - traj.measured) / traj.limit, 1.0)
    return -np.sum(np.sqrt(ratio), axis=1) / traj.reference.shape[1]


def _former_steady_state_metric(rewards, segment_length, skip):
    means = np.empty(len(rewards) // segment_length)
    for s in range(len(means)):
        means[s] = np.mean(rewards[s * segment_length + skip:(s + 1) * segment_length])
    return means, float(np.mean(means))


class TestScoringOracle:
    """The scoring path against the formulas it replaced, bit for bit."""

    @pytest.mark.parametrize("d", [2, 3])
    def test_rewards_and_windows_equal_the_former_formulas(self, d):
        rng = np.random.default_rng(40 + d)
        saturated = 0
        for _ in range(60):
            segment_length = int(rng.integers(2, 700))
            skip = int(rng.integers(0, segment_length))
            n = segment_length * int(rng.integers(1, 25))
            limit = float(rng.uniform(1.0, 300.0))
            ref = rng.uniform(-limit, limit, (n, d))
            meas = ref + rng.standard_normal((n, d)) * limit * rng.uniform(0.01, 1.5)
            saturated += int((np.abs(ref - meas) >= limit).sum())
            traj = make_traj("grid" if d == 3 else "motor", ref, meas, limit)
            rewards = per_step_rewards(traj)
            assert rewards.tobytes() == _former_per_step_rewards(traj).tobytes()
            means, overall = steady_state_metric(traj, segment_length, skip=skip)
            former, former_overall = _former_steady_state_metric(rewards, segment_length, skip)
            assert means.tobytes() == former.tobytes()
            assert overall.hex() == former_overall.hex()
        assert saturated > 0


class TestBoxStats:
    def test_quartiles_and_outliers(self):
        vals = [-0.01, -0.02, -0.03, -0.04, -0.05, -0.9]
        s = box_stats(vals)
        assert s["count"] == 6
        assert s["min"] == -0.9
        assert s["max"] == -0.01
        assert -0.9 in s["outliers"]
        assert s["q1"] <= s["median"] <= s["q3"]

    def test_aggregation_of_synthetic_groups(self):
        # Median ordering of two synthetic metric groups survives the
        # aggregation (oracle: plain numpy median).
        rng = np.random.default_rng(0)
        better = -0.02 + 0.005 * rng.standard_normal(9)
        worse = -0.05 + 0.005 * rng.standard_normal(9)
        sb, sw = box_stats(better), box_stats(worse)
        assert sb["median"] == pytest.approx(float(np.median(better)))
        assert sb["median"] > sw["median"]

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            box_stats([])
