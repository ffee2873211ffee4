import numpy as np
import pytest

from vdmini import evalkit as ek
from vdmini import netgraph as ng
from vdmini import synthdata as sd
from vdmini.errors import MetricError, NonFiniteError, ShapeError
from vdmini.tensor import Tensor


def _videos(n=6, seed=0, frames=4):
    return sd.gen_dataset(n, seed, frames=frames).tensors()


def test_frechet_equal_stats_is_zero():
    mu = np.array([1.0, -2.0])
    sigma = np.array([[2.0, 0.3], [0.3, 1.0]])
    a = ek.GaussianStats(mu, sigma)
    assert ek.frechet_distance(a, a) == pytest.approx(0.0, abs=1e-9)


def test_frechet_mean_shift_closed_form():
    eye = np.eye(2)
    a = ek.GaussianStats(np.zeros(2), eye)
    b = ek.GaussianStats(np.array([3.0, 4.0]), eye)
    assert ek.frechet_distance(a, b) == pytest.approx(25.0, abs=1e-6)


def test_frechet_covariance_scale_closed_form():
    a = ek.GaussianStats(np.zeros(2), np.eye(2))
    b = ek.GaussianStats(np.zeros(2), 4.0 * np.eye(2))
    assert ek.frechet_distance(a, b) == pytest.approx(2.0, abs=1e-6)


def test_frechet_is_symmetric():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((3, 3))
    a = ek.GaussianStats(rng.standard_normal(3), m @ m.T)
    m2 = rng.standard_normal((3, 3))
    b = ek.GaussianStats(rng.standard_normal(3), m2 @ m2.T)
    assert ek.frechet_distance(a, b) == pytest.approx(ek.frechet_distance(b, a), abs=1e-9)


def test_frechet_rejects_asymmetric_covariance():
    bad = ek.GaussianStats(np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]))
    ok = ek.GaussianStats(np.zeros(2), np.eye(2))
    with pytest.raises(MetricError):
        ek.frechet_distance(bad, ok)


def test_matrix_sqrt_reconstructs():
    rng = np.random.default_rng(1)
    m = rng.standard_normal((8, 8))
    psd = m @ m.T
    root = ek._sqrtm_psd(psd)
    err = np.linalg.norm(root @ root - psd) / np.linalg.norm(psd)
    assert err <= 1e-8


def test_extractor_is_deterministic_and_rows_independent():
    videos = _videos()
    ex1 = ek.FeatureExtractor()
    ex2 = ek.FeatureExtractor()
    f1 = ek.extract_features(videos, ex1)
    f2 = ek.extract_features(videos, ex2)
    assert np.array_equal(f1, f2)
    # duplicate video -> identical row; permutation permutes rows
    dup = ek.extract_features([videos[0], videos[1], videos[0]], ex1)
    assert np.array_equal(dup[0], dup[2])
    perm = ek.extract_features([videos[1], videos[0]], ex1)
    assert np.array_equal(perm[0], f1[1]) and np.array_equal(perm[1], f1[0])


def test_fvd_identical_sets_is_tiny():
    videos = _videos()
    assert ek.fvd(videos, videos, ek.FeatureExtractor()) <= 1e-8


def test_fvd_detects_frame_shuffling():
    videos = _videos(frames=6)
    shuffled = [Tensor(v.data[::-1].copy()) for v in videos]
    assert ek.fvd(shuffled, videos, ek.FeatureExtractor()) > 0.0


def test_fvd_three_way_motion_regimes():
    # Disjoint halves of one slow-motion corpus vs. a fast-motion corpus.
    slow = sd.gen_dataset(96, 10, speeds=(1,)).tensors()
    fast = sd.gen_dataset(48, 15, speeds=(4,)).tensors()
    ex = ek.FeatureExtractor()
    same_regime = ek.fvd(slow[:48], slow[48:], ex)
    cross_regime = ek.fvd(slow[:48], fast, ex)
    assert same_regime < cross_regime


def test_fvd_names_the_first_non_finite_video():
    videos = _videos()
    generated = list(videos)
    for i, bad in ((2, np.nan), (4, np.inf)):
        data = videos[i].data.copy()
        data[0, 0, 0, 0] = bad
        generated[i] = Tensor(data)
    with pytest.raises(NonFiniteError, match="video 2 of 6"):
        ek.fvd(generated, videos, ek.FeatureExtractor())


def test_fvd_invariant_to_video_order():
    videos = _videos()
    other = _videos(seed=5)
    ex = ek.FeatureExtractor()
    assert ek.fvd(videos, other, ex) == pytest.approx(
        ek.fvd(videos[::-1], other[::-1], ex), abs=1e-12)


def test_fit_gaussian_depends_only_on_row_multiset():
    rng = np.random.default_rng(3)
    feats = rng.standard_normal((9, 5)) * 10.0 ** rng.integers(-3, 4, size=(9, 1))
    feats[7] = feats[2]  # a duplicated row
    base = ek.fit_gaussian(feats)
    for _ in range(20):
        perm = ek.fit_gaussian(feats[rng.permutation(len(feats))])
        assert np.array_equal(perm.mu, base.mu)
        assert np.array_equal(perm.sigma, base.sigma)


def test_motion_proxy_static_and_offset_invariance():
    static = Tensor(np.full((4, 1, 8, 8), 0.7))
    assert ek.motion_dynamics_proxy(static) == 0.0
    rng = np.random.default_rng(2)
    video = rng.random((4, 1, 8, 8))
    a = ek.motion_dynamics_proxy(Tensor(video))
    b = ek.motion_dynamics_proxy(Tensor(video + 0.1))
    assert a == pytest.approx(b, abs=1e-12)


def test_motion_proxy_single_pixel_shift_geometry():
    # 4x4 unit square moving 1 px/frame: 4 pixels exposed + 4 covered per pair
    shape = sd.ShapeSpec("rectangle", 4, 1.0, (6, 2), (0, 1), bounce=True)
    video = sd.render_scene(sd.SceneConfig(16, 16, 4, (shape,)))
    proxy = ek.motion_dynamics_proxy(Tensor(video.astype(np.float64)))
    assert proxy == pytest.approx(8.0 / 256.0, abs=1e-12)


def test_motion_proxy_needs_two_frames():
    with pytest.raises(ShapeError):
        ek.motion_dynamics_proxy(Tensor(np.zeros((1, 1, 4, 4))))


def test_latency_report_consistency():
    graph = ng.make_unet_graph(ng.ORIGIN_LAYER_COUNTS, (4, 6, 8), emb_dim=8)
    model = ng.build(graph, 0)
    report = ek.measure_latency(model, (2, 1, 16, 16), warmup=1, reps=3)
    # one key per block, each block timed alone on the state entering it
    assert list(report.per_block_ms) == sorted(graph.block_ids())
    assert all(ms > 0.0 for ms in report.per_block_ms.values())
    assert report.reps == 3
    assert report.total_ms > 0.0
