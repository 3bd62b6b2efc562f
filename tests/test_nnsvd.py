import numpy as np
import pytest

from _oracles import full_svd_nnsvd
from deepnmf import InvalidInputError, nnsvd_init, synth_generate


def test_rank_one_input_reconstructs_exactly():
    u = np.array([[1.0], [2.0]])
    v = np.array([[3.0, 1.0, 2.0]])
    x = u @ v
    w, h = nnsvd_init(x, 1)
    assert np.linalg.norm(x - w @ h) <= 1e-12 * np.linalg.norm(x)


def test_identity_is_its_own_init():
    x = np.eye(3)
    w, h = nnsvd_init(x, 3)
    assert np.linalg.norm(x - w @ h) <= 1e-10


def test_error_within_factor_two_of_svd_truncation(rng):
    x = rng.uniform(0.0, 1.0, size=(10, 8))
    w, h = nnsvd_init(x, 4)
    u, s, vt = np.linalg.svd(x, full_matrices=False)
    x4 = (u[:, :4] * s[:4]) @ vt[:4]
    assert np.linalg.norm(x - w @ h) <= 2.0 * np.linalg.norm(x - x4)


def test_factors_nonnegative(rng):
    x = rng.uniform(0.0, 2.0, size=(7, 9))
    w, h = nnsvd_init(x, 5)
    assert w.min() >= 0.0
    assert h.min() >= 0.0


def test_never_worse_than_zero_factorization():
    rng = np.random.default_rng(7)
    for trial in range(20):
        x = rng.uniform(0.0, 1.0, size=rng.integers(2, 9, size=2))
        k = int(rng.integers(1, min(x.shape) + 1))
        w, h = nnsvd_init(x, k)
        assert np.linalg.norm(x - w @ h) <= np.linalg.norm(x) * (1 + 1e-12)


def test_deterministic(rng):
    x = rng.uniform(0.0, 1.0, size=(8, 6))
    w1, h1 = nnsvd_init(x, 3)
    w2, h2 = nnsvd_init(x.copy(), 3)
    np.testing.assert_array_equal(w1, w2)
    np.testing.assert_array_equal(h1, h2)


def test_rank_deficient_input_fills_zero_columns():
    # Rank-1 input with k=3: the trailing singular values vanish, so without
    # the fallback two columns of w would be identically zero.
    u = np.array([[1.0], [2.0], [0.5], [1.5]])
    v = np.array([[3.0, 1.0, 2.0, 0.2, 1.1]])
    x = u @ v
    w, h = nnsvd_init(x, 3)
    for j in range(3):
        assert w[:, j].any()
        assert h[j, :].any()
    fill = x.mean() / 3
    np.testing.assert_allclose(w[:, 1], fill)


def test_k_out_of_range():
    x = np.ones((4, 3))
    with pytest.raises(InvalidInputError):
        nnsvd_init(x, 0)
    with pytest.raises(InvalidInputError):
        nnsvd_init(x, 4)


def test_negative_input_rejected():
    with pytest.raises(InvalidInputError):
        nnsvd_init(np.array([[1.0, -0.1], [0.5, 0.2]]), 1)


def _relative_gap(x, k):
    w, h = nnsvd_init(x, k)
    w_ref, h_ref = full_svd_nnsvd(x, k)
    ref = w_ref @ h_ref
    return np.linalg.norm(w @ h - ref) / np.linalg.norm(ref)


@pytest.mark.parametrize("shape", [(30, 80), (80, 30), (40, 40)],
                         ids=["wide", "tall", "square"])
def test_matches_full_svd_seed_on_random_input(rng, shape):
    x = rng.uniform(0.0, 1.0, size=shape)
    for k in (1, 5, 12):
        assert _relative_gap(x, k) <= 1e-9


# The reduced planted bundles of the benchmark's workloads: (rows, cols,
# planted layer sizes, classes); each is seeded at each of its layer widths.
REDUCED_BUNDLES = {
    "fit_wide": (40, 120, (8, 4), 4),
    "fit_tall": (120, 40, (8, 6, 4), 4),
    "sweep_score": (20, 300, (8, 4), 4),
}


@pytest.mark.parametrize("name", sorted(REDUCED_BUNDLES))
def test_matches_full_svd_seed_on_planted_bundles(name):
    rows, cols, sizes, classes = REDUCED_BUNDLES[name]
    for seed in (1, 9):
        x = synth_generate("planted_linear", seed, rows=rows, cols=cols,
                           layer_sizes=sizes, classes=classes, noise=0.01).x
        for k in sizes:
            assert _relative_gap(x, k) <= 1e-9


def test_traces_under_half_an_input(traced_peak, rng):
    # The full SVD's right factor alone is as large as a wide input.
    x = rng.uniform(0.0, 1.0, size=(40, 4000))
    assert traced_peak(nnsvd_init, x, 4) < 0.5 * x.nbytes


def test_zero_singular_value_gives_a_zero_side_without_warning():
    # A rank-1 input whose gram has exactly zero trailing eigenvalues; the
    # divide by s must not warn (warnings are errors here) and the dead
    # columns are filled.
    x = np.zeros((3, 6))
    x[0] = 1.0
    w, h = nnsvd_init(x, 3)
    assert np.linalg.norm(x - w[:, :1] @ h[:1]) <= 1e-12
    np.testing.assert_array_equal(w[:, 1:], x.mean() / 3)
    np.testing.assert_array_equal(h[1:], x.mean() / 3)
