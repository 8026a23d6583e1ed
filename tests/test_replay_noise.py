"""Replay ring semantics, sampling uniformity, and OU noise statistics."""

import numpy as np
import pytest
from scipy import stats

from secrl import ConfigurationError
from secrl.ddpg.noise import OuNoise, noisy_action
from secrl.ddpg.replay import Experience, ReplayBuffer
from secrl.seeding import derive_rng


def _exp(tag: float, obs_dim=2, act_dim=1) -> Experience:
    return Experience(
        obs=np.full(obs_dim, tag),
        action=np.zeros(act_dim),
        reward=tag,
        next_obs=np.full(obs_dim, tag + 0.5),
        terminal=False,
    )


class TestReplayRing:
    def test_single_push_fill_count(self):
        buf = ReplayBuffer(4, obs_dim=2, action_dim=1)
        buf.push(_exp(1.0))
        assert len(buf) == 1

    def test_eviction_matches_list_model(self):
        # Reference model: plain list truncated to the last `capacity` items.
        buf = ReplayBuffer(3, obs_dim=2, action_dim=1)
        model: list[float] = []
        for tag in [1.0, 2.0, 3.0, 4.0]:
            buf.push(_exp(tag))
            model.append(tag)
            model = model[-3:]
        assert [e.reward for e in buf.contents()] == model == [2.0, 3.0, 4.0]

    def test_long_overwrite_keeps_last_capacity_items(self):
        buf = ReplayBuffer(5, obs_dim=2, action_dim=1)
        model: list[float] = []
        for tag in range(17):
            buf.push(_exp(float(tag)))
            model = (model + [float(tag)])[-5:]
        assert [e.reward for e in buf.contents()] == model
        assert len(buf) == 5

    def test_dimension_mismatch_rejected(self):
        buf = ReplayBuffer(3, obs_dim=2, action_dim=1)
        with pytest.raises(ConfigurationError):
            buf.push(_exp(1.0, obs_dim=3))
        with pytest.raises(ConfigurationError):
            buf.push(_exp(1.0, act_dim=2))

    def test_sample_single_element_buffer(self):
        buf = ReplayBuffer(3, obs_dim=2, action_dim=1)
        buf.push(_exp(7.0))
        obs, act, rew, nxt, term = buf.sample(1, derive_rng(0, 5))
        assert rew[0] == 7.0
        assert np.all(obs[0] == 7.0)

    def test_sample_underfilled_rejected(self):
        buf = ReplayBuffer(10, obs_dim=2, action_dim=1)
        buf.push(_exp(1.0))
        with pytest.raises(ConfigurationError):
            buf.sample(2, derive_rng(0, 5))

    def test_sampling_is_uniform_chi_square(self):
        # 1e5 draws from a 10-element buffer, chi-square at significance 0.01.
        buf = ReplayBuffer(10, obs_dim=2, action_dim=1)
        for tag in range(10):
            buf.push(_exp(float(tag)))
        rng = derive_rng(123, 5)
        counts = np.zeros(10)
        for _ in range(10_000):
            _, _, rew, _, _ = buf.sample(10, rng)
            for tag in range(10):
                counts[tag] += np.sum(rew == float(tag))
        assert counts.sum() == 100_000
        _, p = stats.chisquare(counts)
        assert p > 0.01

    def test_sampling_deterministic_under_seed(self):
        buf = ReplayBuffer(10, obs_dim=2, action_dim=1)
        for tag in range(10):
            buf.push(_exp(float(tag)))
        r1 = buf.sample(10, derive_rng(9, 5))
        r2 = buf.sample(10, derive_rng(9, 5))
        for a, b in zip(r1, r2):
            assert np.array_equal(a, b)


class TestOuNoise:
    def test_one_step_hand_value(self):
        # sigma=0, mean=0, nu0=1, stiffness=10, dt=1e-4: nu1 = 1 - 10*1*1e-4.
        ou = OuNoise(1, stiffness=10.0, diffusion=0.0, mean=0.0, dt=1e-4)
        ou.reset(1.0)
        nu = ou.step(derive_rng(0, 1))
        assert nu[0] == pytest.approx(0.999, abs=1e-15)

    def test_mean_is_fixed_point_without_diffusion(self):
        ou = OuNoise(2, stiffness=5.0, diffusion=0.0, mean=0.3, dt=1e-3)
        ou.reset(0.3)
        rng = derive_rng(0, 1)
        for _ in range(100):
            nu = ou.step(rng)
        assert np.allclose(nu, 0.3, atol=1e-15)

    def test_stationary_mean_and_variance(self):
        # Defaults stiffness 31.58, diffusion 2.6e-2 over 1e6 steps; the
        # AR(1) stationary variance formula is checked within 5 %.
        ou = OuNoise(1, stiffness=31.58, diffusion=2.6e-2, mean=0.0, dt=1e-4)
        rng = derive_rng(77, 1)
        n = 1_000_000
        a = 1.0 - ou.stiffness * ou.dt
        # Vectorized AR(1): same recursion, generated with scipy's filter.
        from scipy.signal import lfilter

        shocks = ou.diffusion * np.sqrt(ou.dt) * rng.standard_normal(n)
        series = lfilter([1.0], [1.0, -a], shocks)
        burn = 50_000
        tail = series[burn:]
        var_expected = ou.stationary_variance()
        sd_stat = np.sqrt(var_expected)
        se_mean = sd_stat * np.sqrt((1 + a) / ((1 - a) * len(tail)))
        assert abs(np.mean(tail)) < 4.0 * se_mean
        assert abs(np.var(tail) - var_expected) / var_expected < 0.05
        # The object recursion matches the vectorized form step for step.
        ou.reset(0.0)
        rng2 = derive_rng(77, 1)
        manual = np.empty(1000)
        for i in range(1000):
            manual[i] = ou.step(rng2)[0]
        assert np.allclose(manual, series[:1000], rtol=1e-9, atol=1e-12)

    def test_noisy_action_clips_after_adding(self):
        assert noisy_action(np.array([0.95]), np.array([0.2]))[0] == 1.0
        assert noisy_action(np.array([-0.5]), np.array([-0.7]))[0] == -1.0
        out = noisy_action(np.array([0.3, -0.2]), np.zeros(2))
        assert np.array_equal(out, [0.3, -0.2])

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            OuNoise(1, stiffness=-1.0, diffusion=0.1)
        with pytest.raises(ConfigurationError):
            OuNoise(1, stiffness=1.0, diffusion=0.1, dt=0.0)


class TestReplayRestore:
    def _copy(self, src: ReplayBuffer, count, cursor) -> ReplayBuffer:
        dst = ReplayBuffer(src.capacity, src.obs_dim, src.action_dim)
        for key, view in dst.rows(src.capacity).items():
            view[...] = src.rows(src.capacity)[key]
        dst.restore(count, cursor)
        return dst

    def test_full_ring_with_wrapped_cursor_round_trips(self):
        src = ReplayBuffer(5, obs_dim=2, action_dim=1)
        for tag in range(7):
            src.push(_exp(float(tag)))
        state = src.state_dict()
        assert (state["count"], state["cursor"]) == (5, 2)
        dst = self._copy(src, 5, 2)
        assert [e.reward for e in dst.contents()] == [2.0, 3.0, 4.0, 5.0, 6.0]
        src.push(_exp(7.0))
        dst.push(_exp(7.0))
        assert [e.reward for e in dst.contents()] == [e.reward for e in src.contents()]

    @pytest.mark.parametrize("count, cursor, message", [
        (6, 0, "replay count 6 outside [0, 5]"),
        (-1, 0, "replay count -1 outside [0, 5]"),
        (3, -2, "replay cursor -2 impossible"),
        (3, 1, "replay cursor 1 impossible"),
        (5, 5, "replay cursor 5 impossible"),
        (3.0, 3, "replay count 3.0 outside"),
    ])
    def test_impossible_positions_rejected(self, count, cursor, message):
        src = ReplayBuffer(5, obs_dim=2, action_dim=1)
        for tag in range(3):
            src.push(_exp(float(tag)))
        with pytest.raises(ConfigurationError, match=message.replace("[", r"\[")):
            self._copy(src, count, cursor)

    def test_non_finite_rows_rejected(self):
        src = ReplayBuffer(5, obs_dim=2, action_dim=1)
        for tag in range(3):
            src.push(_exp(float(tag)))
        src.rows(3)["next"][1, 0] = np.inf
        with pytest.raises(ConfigurationError, match="replay rows 'next' hold non-finite"):
            self._copy(src, 3, 3)
        # A non-finite value past the stored count is not part of the ring.
        self._copy(src, 1, 1)
