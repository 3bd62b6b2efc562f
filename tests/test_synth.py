import numpy as np
import pytest

from deepnmf import (InvalidInputError, StopRule, TrainConfig, fit, kmeans,
                     make_spec, nmi, synth_generate)
from deepnmf.models import unroll
from deepnmf.synth import _planted_factors

from _oracles import per_column_planted


def test_planted_linear_is_fittable():
    bundle = synth_generate("planted_linear", seed=2, rows=30, cols=100,
                            layer_sizes=(10, 5), classes=5, noise=0.0)
    assert bundle.x.shape == (30, 100)
    assert bundle.x.min() >= 0.0
    cfg = TrainConfig(inner_stop=StopRule(300, 1e-5), max_sweeps=120,
                      rel_obj_tol=1e-10)
    stack, report = fit(make_spec("dnmf", (10, 5)), bundle.x, cfg)
    recon = stack.w[0] @ stack.w[1] @ stack.h[1]
    rel = np.linalg.norm(bundle.x - recon) / np.linalg.norm(bundle.x)
    assert rel <= 1e-3


def test_blob_clusters_recoverable_from_raw_data():
    bundle = synth_generate("blobs", seed=4, rows=12, cols=80, classes=4,
                            separation=10.0)
    part = kmeans(bundle.x, 4, restarts=5, seed=0)
    assert nmi(part, bundle.labels) == pytest.approx(1.0, abs=1e-12)


def test_same_seed_bit_identical():
    a = synth_generate("planted_nonlinear", seed=7, rows=10, cols=20,
                       layer_sizes=(4, 2), classes=2, noise=0.05)
    b = synth_generate("planted_nonlinear", seed=7, rows=10, cols=20,
                       layer_sizes=(4, 2), classes=2, noise=0.05)
    np.testing.assert_array_equal(a.x, b.x)
    np.testing.assert_array_equal(a.labels.labels, b.labels.labels)


def test_labels_are_balanced_blocks():
    bundle = synth_generate("planted_linear", seed=1, rows=10, cols=12,
                            layer_sizes=(4, 4), classes=4)
    counts = np.bincount(bundle.labels.labels)
    assert counts.tolist() == [3, 3, 3, 3]


def test_nonlinear_kind_uses_inverse_projection():
    lin = synth_generate("planted_linear", seed=3, rows=8, cols=10,
                         layer_sizes=(4, 2), classes=2)
    non = synth_generate("planted_nonlinear", seed=3, rows=8, cols=10,
                         layer_sizes=(4, 2), classes=2, activation="root")
    assert not np.allclose(lin.x, non.x)


@pytest.mark.parametrize("kind,activation", [("planted_linear", "linear"),
                                             ("planted_nonlinear", "root"),
                                             ("planted_nonlinear", "tanh")])
def test_planted_data_is_the_model_chain(kind, activation):
    bundle = synth_generate(kind, seed=6, rows=12, cols=30, layer_sizes=(6, 4, 3),
                            classes=3, activation=activation)
    ws, h_last, labels = _planted_factors(np.random.default_rng(6), 12,
                                          (6, 4, 3), 3, 30)
    expected = np.maximum(unroll(activation, ws, h_last)[0][0], 0.0)
    np.testing.assert_array_equal(bundle.x, expected)
    np.testing.assert_array_equal(bundle.labels.labels, labels)


@pytest.mark.parametrize("kind,rows,cols,sizes,classes", [
    ("planted_linear", 12, 50, (6, 5), 3),
    ("planted_linear", 9, 23, (7, 7), 4),
    ("planted_linear", 10, 31, (6, 6, 5), 4),
    ("planted_nonlinear", 12, 37, (8, 6), 5),
])
@pytest.mark.parametrize("seed", [0, 5, 17])
def test_planted_draws_follow_the_per_column_order(kind, rows, cols, sizes,
                                                   classes, seed):
    # Class blocks of uneven height (k_L not a multiple of the classes) and
    # classes of uneven size; the noise is drawn after H_L.
    bundle = synth_generate(kind, seed, rows=rows, cols=cols,
                            layer_sizes=sizes, classes=classes, noise=0.05)
    x, labels = per_column_planted(kind, seed, rows, cols, sizes, classes,
                                   noise=0.05)
    np.testing.assert_array_equal(bundle.x, x)
    np.testing.assert_array_equal(bundle.labels.labels, labels)


def test_invalid_params_rejected():
    with pytest.raises(InvalidInputError):
        synth_generate("nope", seed=0)
    with pytest.raises(InvalidInputError):
        synth_generate("blobs", seed=0, cols=4, classes=9)
    with pytest.raises(InvalidInputError):
        synth_generate("planted_linear", seed=0, noise=-1.0)
    with pytest.raises(InvalidInputError, match="noise"):
        synth_generate("planted_linear", seed=0, noise=float("nan"))
    with pytest.raises(InvalidInputError, match="separation"):
        synth_generate("blobs", seed=0, separation=float("nan"))
    with pytest.raises(InvalidInputError):
        synth_generate("planted_linear", seed=0, rows=5, layer_sizes=(8, 2),
                       classes=2)
    with pytest.raises(InvalidInputError):
        synth_generate("planted_linear", seed=0, layer_sizes=(10, 2), classes=4)
    with pytest.raises(InvalidInputError):
        synth_generate("planted_nonlinear", seed=0, activation="linear")
