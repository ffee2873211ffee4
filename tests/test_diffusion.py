import math

import numpy as np
import pytest

from vdmini import diffusion as df
from vdmini import netgraph as ng
from vdmini.errors import ShapeError, VdminiError
from vdmini.tensor import Tape, Tensor, backward

from defaults import configured
from gradcheck import backward_matching_reference

SD = 0.5


class ZeroNet:
    """Inner network f == 0."""

    def forward(self, x, c_noise, cond=None, features=None, videos=1):
        return Tensor(np.zeros(x.shape))


class ConstNet:
    """Inner network f == value everywhere."""

    def __init__(self, value):
        self.value = value

    def forward(self, x, c_noise, cond=None, features=None, videos=1):
        return Tensor(np.full(x.shape, self.value))


class PerfectDenoiser:
    """Chooses f so that c0 x_t + c1 f == x_star exactly, for one video."""

    def __init__(self, x_star, sigma_data=SD):
        self.x_star = np.asarray(x_star, dtype=np.float64)
        self.sigma_data = sigma_data

    def forward(self, x, c_noise, cond=None, features=None, videos=1):
        # one noise level, as a float or a one-entry sequence
        sigma = math.exp(4.0 * float(np.ravel(c_noise)[0]))
        c0, c1, c2, _ = df.precondition_coeffs(sigma, self.sigma_data)
        x_t = x.data / c2
        return Tensor((self.x_star - c0 * x_t) / c1)


class CountedNet(ZeroNet):
    """f == 0, recording (input shape, noise levels, videos) of each call."""

    def __init__(self):
        self.calls = []

    def forward(self, x, c_noise, cond=None, features=None, videos=1):
        self.calls.append((x.shape, np.size(c_noise), videos))
        return super().forward(x, c_noise, cond, features, videos)


def test_coeffs_at_sigma_equal_sigma_data():
    c0, c1, c2, c3 = df.precondition_coeffs(SD, SD)
    assert c0 == pytest.approx(0.5, abs=1e-12)
    assert c1 == pytest.approx(0.353553, abs=1e-6)
    assert c2 == pytest.approx(1.414214, abs=1e-6)
    assert c3 == pytest.approx(math.log(SD) / 4, abs=1e-15)


def test_coeff_large_sigma_limits():
    c0, c1, _, _ = df.precondition_coeffs(1e9, SD)
    assert c0 == pytest.approx(0.0, abs=1e-12)
    assert c1 == pytest.approx(SD, abs=1e-9)


def test_coeffs_and_denoise_reject_sigma_not_above_zero():
    x_t = Tensor(np.zeros((2, 1, 4, 4)))
    for sigma in (0.0, -0.1, [1.0, 0.0], [-0.1, 1.0]):
        with pytest.raises(VdminiError, match="sigma must be > 0"):
            df.precondition_coeffs(sigma, SD)
        with pytest.raises(VdminiError, match="sigma must be > 0"):
            df.denoise(ZeroNet(), x_t, sigma, None, SD)


def test_add_noise_rejects_sigma_not_above_zero():
    x0 = Tensor(np.zeros((2, 1, 4, 4)))
    for sigma in (0.0, -0.1):
        rng = np.random.default_rng(1)
        with pytest.raises(VdminiError, match="sigma must be > 0"):
            df.add_noise(x0, sigma, rng)
        assert rng.bit_generator.state == np.random.default_rng(1).bit_generator.state


def test_add_noise_monte_carlo_law():
    x0 = Tensor(np.zeros(100_000))
    noise = df.add_noise(x0, 1.0, np.random.default_rng(7)).data
    assert abs(noise.mean()) < 0.02
    assert abs(noise.var() - 1.0) < 0.02


def test_add_noise_is_affine_in_sigma():
    x0 = Tensor(np.zeros((3, 4)))
    a = df.add_noise(x0, 1.0, np.random.default_rng(3)).data
    b = df.add_noise(x0, 2.5, np.random.default_rng(3)).data
    assert np.allclose(b, 2.5 * a, atol=1e-12)


def test_denoise_with_zero_net_is_c0_x():
    x_t = Tensor(np.random.default_rng(2).standard_normal((2, 1, 4, 4)))
    c0, _, _, _ = df.precondition_coeffs(1.7, SD)
    out = df.denoise(ZeroNet(), x_t, 1.7, None, SD)
    assert np.allclose(out.data, c0 * x_t.data, atol=1e-15)


def test_denoise_const_net_composition():
    x_t = Tensor(np.random.default_rng(5).standard_normal((1, 1, 3, 3)))
    out = df.denoise(ConstNet(1.0), x_t, SD, None, SD)
    expected = 0.5 * x_t.data + 0.3535533905932738
    assert np.allclose(out.data, expected, atol=1e-12)


def test_one_step_sample_with_zero_net():
    schedule = configured(df.NoiseSchedule, "schedule")
    shape = (2, 1, 4, 4)
    out = df.sample(ZeroNet(), schedule, 1, None, np.random.default_rng(0), shape)
    eps = np.random.default_rng(0).standard_normal(shape)
    c0, _, _, _ = df.precondition_coeffs(schedule.sigma_max, SD)
    assert np.allclose(out.data, c0 * schedule.sigma_max * eps, atol=1e-12)


def test_perfect_denoiser_is_sampler_fixed_point():
    x_star = np.random.default_rng(6).standard_normal((1, 1, 4, 4))
    schedule = configured(df.NoiseSchedule, "schedule")
    model = PerfectDenoiser(x_star)
    for steps in (1, 5, 20):
        out = df.sample(model, schedule, steps, None, np.random.default_rng(8),
                        x_star.shape)
        assert np.allclose(out.data, x_star, atol=1e-8), steps


def test_sampler_is_deterministic():
    schedule = configured(df.NoiseSchedule, "schedule")
    model = ConstNet(0.3)
    a = df.sample(model, schedule, 4, None, np.random.default_rng(11), (1, 1, 4, 4))
    b = df.sample(model, schedule, 4, None, np.random.default_rng(11), (1, 1, 4, 4))
    assert np.array_equal(a.data, b.data)


def test_sample_set_seeds_each_sample_by_its_index():
    # noise on every weight: in a fresh model every residual branch ends in
    # a zero conv, so each block is the identity and mixing videos would not show
    graph = ng.make_unet_graph(ng.ORIGIN_LAYER_COUNTS, (4, 6, 8), emb_dim=8)
    rng = np.random.default_rng(1)
    model = ng.Model(graph, {n: Tensor(p.data + 0.3 * rng.standard_normal(p.shape))
                             for n, p in ng.build(graph, 1).params.items()})
    schedule = configured(df.NoiseSchedule, "schedule", n_levels=4)
    conds = [Tensor(np.full((1, 1, 16, 16), v)) for v in (0.2, 0.7, 0.4)]
    # at 3 frames of 16x16, one GEMM over all videos' columns would round a
    # video's tail columns differently from the same GEMM over it alone
    for shape in ((2, 1, 16, 16), (3, 1, 16, 16)):
        alone = [df.sample(model, schedule, 2, cond,
                           np.random.Generator(np.random.PCG64(np.random.SeedSequence([13, i]))),
                           shape)
                 for i, cond in enumerate(conds)]
        for n in (1, 2, 3):
            got = df.sample_set(model, schedule, conds[:n], 13, shape, 2)
            assert len(got) == n
            for i in range(n):
                assert np.array_equal(got[i].data, alone[i].data), (shape, n, i)
    assert df.sample_set(model, schedule, [], 13, (2, 1, 16, 16), 2) == []


def test_sample_set_rejects_mixed_conditions():
    model = ng.build(ng.make_unet_graph(ng.ORIGIN_LAYER_COUNTS, (4, 6, 8), emb_dim=8), 0)
    schedule = configured(df.NoiseSchedule, "schedule", n_levels=4)
    one, two = Tensor(np.zeros((1, 1, 16, 16))), Tensor(np.zeros((2, 1, 16, 16)))
    for conds in ([one, None], [one, two]):
        with pytest.raises(ShapeError, match="all None or all of one shape"):
            df.sample_set(model, schedule, conds, 0, (2, 1, 16, 16))


def test_schedule_is_strictly_decreasing():
    s = configured(df.NoiseSchedule, "schedule").sigmas()
    assert len(s) == 40
    assert s[0] == 80.0 and s[-1] == pytest.approx(0.02, abs=1e-12)
    assert np.all(np.diff(s) < 0)


def test_denoising_loss_zero_for_perfect_denoiser():
    x0 = Tensor(np.random.default_rng(9).standard_normal((2, 1, 4, 4)))
    schedule = configured(df.NoiseSchedule, "schedule")
    loss = df.denoising_loss(PerfectDenoiser(x0.data), [x0], schedule,
                             np.random.default_rng(10))
    assert loss.item() == pytest.approx(0.0, abs=1e-18)


def test_denoising_loss_hand_value_for_zero_net():
    x0 = Tensor(np.ones((1, 1, 2, 2)))
    schedule = configured(df.NoiseSchedule, "schedule")
    rng = np.random.default_rng(12)
    loss = df.denoising_loss(ZeroNet(), [x0], schedule, rng)
    # replay the same draws to compute the expected weighted error by hand
    rng2 = np.random.default_rng(12)
    sigma = df.sample_sigma(schedule, rng2)
    x_t = x0.data + sigma * rng2.standard_normal(x0.shape)
    c0, _, _, _ = df.precondition_coeffs(sigma, SD)
    lam = (sigma**2 + SD**2) / (sigma * SD) ** 2
    expected = lam * np.sum((c0 * x_t - x0.data) ** 2)
    assert loss.item() == pytest.approx(expected, rel=1e-12)
    assert loss.item() >= 0.0


def test_denoising_loss_hand_value_for_zero_net_two_videos():
    batch = [Tensor(np.ones((2, 1, 2, 2))), Tensor(np.full((2, 1, 2, 2), -0.5))]
    schedule = configured(df.NoiseSchedule, "schedule")
    loss = df.denoising_loss(ZeroNet(), batch, schedule, np.random.default_rng(12))
    # each video draws its sigma, then its noise, and is weighted by its own lambda
    rng2 = np.random.default_rng(12)
    sigmas, terms = [], []
    for x0 in batch:
        sigma = df.sample_sigma(schedule, rng2)
        x_t = x0.data + sigma * rng2.standard_normal(x0.shape)
        c0, _, _, _ = df.precondition_coeffs(sigma, SD)
        lam = (sigma**2 + SD**2) / (sigma * SD) ** 2
        sigmas.append(sigma)
        terms.append(lam * np.sum((c0 * x_t - x0.data) ** 2))
    assert sigmas[0] != sigmas[1]
    assert loss.item() == pytest.approx(np.mean(terms), rel=1e-12)


def test_denoising_loss_calls_the_network_once_per_batch():
    net = CountedNet()
    batch = [Tensor(np.full((2, 1, 4, 4), v)) for v in (0.1, 0.2, 0.3)]
    conds = [Tensor(np.zeros((1, 1, 4, 4))) for _ in batch]
    schedule = configured(df.NoiseSchedule, "schedule")
    df.denoising_loss(net, batch, schedule, np.random.default_rng(0), conds)
    assert net.calls == [((6, 1, 4, 4), 3, 3)]
    with pytest.raises(ShapeError, match="stack"):
        df.denoising_loss(net, batch + [Tensor(np.zeros((3, 1, 4, 4)))], schedule,
                          np.random.default_rng(0))


def test_denoising_loss_of_a_batch_is_the_mean_of_its_videos_alone():
    # noise on every weight, so that every block (and the noise embedding)
    # shapes the output; one generator replays the same draws both ways
    graph = ng.make_unet_graph(ng.ORIGIN_LAYER_COUNTS, (4, 6, 8), emb_dim=8)
    rng = np.random.default_rng(3)
    model = ng.Model(graph, {n: Tensor(p.data + 0.3 * rng.standard_normal(p.shape))
                             for n, p in ng.build(graph, 1).params.items()})
    batch = [Tensor(rng.standard_normal((2, 1, 16, 16))) for _ in range(3)]
    conds = [Tensor(rng.standard_normal((1, 1, 16, 16))) for _ in batch]
    schedule = configured(df.NoiseSchedule, "schedule", n_levels=4)
    whole = df.denoising_loss(model, batch, schedule, np.random.default_rng(21), conds)
    replay = np.random.default_rng(21)
    alone = [df.denoising_loss(model, [x], schedule, replay, [c]).item()
             for x, c in zip(batch, conds)]
    assert whole.item() == pytest.approx(np.mean(alone), rel=1e-9)


def test_denoising_loss_backward_reaches_model_params():
    graph = ng.make_unet_graph(ng.ORIGIN_LAYER_COUNTS, (4, 6, 8), emb_dim=8)
    model = ng.build(graph, 0)
    x0 = Tensor(np.random.default_rng(16).standard_normal((2, 1, 16, 16)))
    with Tape() as tape:
        loss = df.denoising_loss(model, [x0], configured(df.NoiseSchedule, "schedule"),
                                 np.random.default_rng(17))
    grads = backward(tape, loss)
    named = [n for n, p in model.params.items() if p in grads]
    assert len(named) > 100


def test_denoising_loss_backward_matches_the_serial_reference_bitwise():
    # criterion 11's FAST_PIPELINE shapes: widths 4/6/8, 2-frame videos, batch 2
    model = ng.build(ng.make_unet_graph(ng.ORIGIN_LAYER_COUNTS, (4, 6, 8), emb_dim=8), 3)
    rng = np.random.default_rng(28)
    batch = [Tensor(rng.standard_normal((2, 1, 16, 16))) for _ in range(2)]
    conds = [Tensor(v.data[:1]) for v in batch]
    with Tape() as tape:
        loss = df.denoising_loss(model, batch, configured(df.NoiseSchedule, "schedule"), rng, conds)
    grads = backward_matching_reference(tape, loss)
    assert all(p in grads for p in model.params.values())
