import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deepnmf import (InvalidInputError, Partition, confusion_matrix,
                     error_rate, from_labels, kmeans, naive_precision, nmi)
from deepnmf import kernels, metrics

from _oracles import (canonical_partitions, er_oracle, kmeans_assign_oracle,
                      nmi_oracle, np_oracle)

# Worked example: reference {1,1,2,2} against obtained {1,2,2,2}.
REF = Partition(np.array([0, 0, 1, 1]), 2)
OBT = Partition(np.array([0, 1, 1, 1]), 2)
NMI_EXPECTED = 0.3437110184854508  # frozen from the formula oracle
ER_EXPECTED = 1.5650845800732873   # 6**(1/4): six disagreeing co-membership entries


def _from_labels_loop(raw):
    """The per-sample relabeling loop ``from_labels`` replaced."""
    labels = np.asarray(raw)
    _, inverse = np.unique(labels, return_inverse=True)
    order = {}
    out = np.empty(labels.size, dtype=np.int64)
    for i, v in enumerate(inverse):
        out[i] = order.setdefault(int(v), len(order))
    return out, len(order)


class TestPartition:
    def test_validation(self):
        with pytest.raises(InvalidInputError):
            Partition(np.array([0, 2]), 2)
        with pytest.raises(InvalidInputError):
            Partition(np.array([-1, 0]), 2)
        with pytest.raises(InvalidInputError):
            Partition(np.array([]), 1)

    def test_from_labels_relabels(self):
        part = from_labels([7, 7, 3, 9])
        np.testing.assert_array_equal(part.labels, [0, 0, 1, 2])
        assert part.n_clusters == 3

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(
        st.lists(st.integers(-4, 6), min_size=1, max_size=40),
        st.lists(st.sampled_from(["a", "b", "c", "zz"]), min_size=1,
                 max_size=40)))
    def test_from_labels_matches_per_sample_loop(self, raw):
        part = from_labels(raw)
        labels, n_clusters = _from_labels_loop(raw)
        assert part.labels.dtype == np.int64
        np.testing.assert_array_equal(part.labels, labels)
        assert part.n_clusters == n_clusters

    def test_confusion_matrix(self):
        counts = confusion_matrix(OBT, REF)
        np.testing.assert_array_equal(counts, [[1, 1], [0, 2]])


class TestNmi:
    def test_relabeling_gives_one(self):
        a = Partition(np.array([0, 0, 1, 1]), 2)
        b = Partition(np.array([1, 1, 0, 0]), 2)
        assert nmi(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_independent_partitions_give_zero(self):
        a = Partition(np.array([0, 1, 0, 1]), 2)
        b = Partition(np.array([0, 0, 1, 1]), 2)
        assert nmi(a, b) == pytest.approx(0.0, abs=1e-12)

    def test_worked_example(self):
        assert nmi(OBT, REF) == pytest.approx(NMI_EXPECTED, rel=1e-12)

    def test_log_base_invariance(self):
        # Any log base cancels in the ratio.
        base2 = nmi_oracle(OBT.labels, REF.labels, log=lambda v: math.log2(v))
        assert nmi(OBT, REF) == pytest.approx(base2, rel=1e-12)

    def test_symmetric(self):
        assert nmi(OBT, REF) == pytest.approx(nmi(REF, OBT), rel=1e-12)

    def test_single_cluster_both_sides(self):
        a = Partition(np.zeros(4, dtype=int), 1)
        b = Partition(np.zeros(4, dtype=int), 1)
        assert nmi(a, b) == 1.0


class TestErrorRate:
    def test_identical_partitions(self):
        assert error_rate(REF, REF) == 0.0

    def test_worked_example(self):
        assert error_rate(OBT, REF) == pytest.approx(ER_EXPECTED, rel=1e-12)

    def test_literal_root_knob(self):
        assert error_rate(OBT, REF, literal_root=False) == pytest.approx(
            math.sqrt(6.0), rel=1e-12)

    def test_relabeling_invariance(self):
        relabeled = Partition(1 - OBT.labels, 2)
        assert error_rate(relabeled, REF) == error_rate(OBT, REF)

    def test_symmetric(self):
        assert error_rate(OBT, REF) == error_rate(REF, OBT)

    @pytest.mark.parametrize("literal_root", [True, False])
    def test_equals_oracle_exactly(self, rng, literal_root):
        pairs = [([1, 1, 2, 2], [1, 2, 2, 2])]
        for n in range(1, 7):
            parts = canonical_partitions(n, 3)
            pairs += [(la, lb) for la in parts for lb in parts]
        for _ in range(5):
            pairs.append((rng.integers(0, 4, size=60).tolist(),
                          rng.integers(0, 6, size=60).tolist()))
        for la, lb in pairs:
            assert error_rate(from_labels(la), from_labels(lb),
                              literal_root=literal_root) == er_oracle(
                la, lb, literal_root=literal_root)

    def test_memory_does_not_grow_with_sample_pairs(self, rng):
        n = 20_000
        a = Partition(rng.integers(0, 10, size=n), 10)
        b = Partition(rng.integers(0, 12, size=n), 12)
        tracemalloc.start()
        try:
            error_rate(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20


class TestNaivePrecision:
    def test_identical_partitions(self):
        assert naive_precision(REF, REF) == 1.0

    def test_worked_example(self):
        assert naive_precision(OBT, REF) == pytest.approx(0.75, rel=1e-12)

    def test_collapsed_clustering_inflates_to_one(self):
        # Documented behavior: a single obtained cluster scores NP = 1.
        collapsed = Partition(np.zeros(4, dtype=int), 1)
        assert naive_precision(collapsed, REF) == 1.0

    def test_not_symmetric(self):
        a = Partition(np.array([0, 0, 0, 1]), 2)
        b = Partition(np.array([0, 0, 1, 1]), 2)
        assert naive_precision(a, b) != naive_precision(b, a)

    def test_empty_reference_class_rejected(self):
        ref = Partition(np.array([0, 0, 1, 1]), 3)  # class 2 declared, unused
        with pytest.raises(InvalidInputError):
            naive_precision(OBT, ref)


class TestAgainstExhaustiveOracle:
    def test_all_small_partitions(self):
        for n in range(2, 7):
            parts = canonical_partitions(n, 3)
            for la in parts:
                for lb in parts:
                    a = from_labels(la)
                    b = from_labels(lb)
                    assert nmi(a, b) == pytest.approx(nmi_oracle(la, lb), abs=1e-12)
                    assert error_rate(a, b) == pytest.approx(er_oracle(la, lb),
                                                             abs=1e-12)
                    assert naive_precision(a, b) == pytest.approx(
                        np_oracle(la, lb), abs=1e-12)

    def test_identity_scores(self):
        for labels in canonical_partitions(5, 3):
            if max(labels) == 0:
                continue
            part = from_labels(labels)
            assert nmi(part, part) == pytest.approx(1.0, abs=1e-12)
            assert error_rate(part, part) == 0.0
            assert naive_precision(part, part) == 1.0


class TestKmeans:
    def test_well_separated_pairs(self):
        data = np.array([[0.0, 0.1, 10.0, 10.1]])
        part = kmeans(data, 2, restarts=3, seed=1)
        assert part.labels[0] == part.labels[1]
        assert part.labels[2] == part.labels[3]
        assert part.labels[0] != part.labels[2]

    def test_k_equals_samples(self, rng):
        data = rng.uniform(0.0, 1.0, size=(3, 5))
        part = kmeans(data, 5, restarts=2, seed=0)
        assert len(set(part.labels.tolist())) == 5

    def test_recovers_planted_blobs(self, rng):
        centers = rng.uniform(0.0, 50.0, size=(6, 4))
        labels = np.repeat(np.arange(4), 25)
        data = centers[:, labels] + 0.5 * rng.standard_normal((6, 100))
        part = kmeans(data, 4, restarts=5, seed=3)
        assert nmi(part, Partition(labels, 4)) == pytest.approx(1.0, abs=1e-12)

    def test_deterministic_given_seed(self, rng):
        data = rng.uniform(0.0, 1.0, size=(4, 30))
        a = kmeans(data, 3, restarts=4, seed=11)
        b = kmeans(data, 3, restarts=4, seed=11)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_k_larger_than_samples_rejected(self, rng):
        with pytest.raises(InvalidInputError):
            kmeans(rng.uniform(0.0, 1.0, size=(2, 4)), 5)

    def test_restarts_validated(self, rng):
        with pytest.raises(InvalidInputError):
            kmeans(rng.uniform(0.0, 1.0, size=(2, 4)), 2, restarts=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_data_rejected(self, bad):
        with pytest.raises(InvalidInputError):
            kmeans(np.array([[bad, 1.0, 2.0, 3.0]]), 2)

    def test_fewer_distinct_samples_than_clusters(self):
        # Every Lloyd iteration re-seeds an empty cluster; the last
        # assignment is the partition, with empty clusters.
        part = kmeans(np.ones((3, 6)), 3)
        assert part.n_clusters == 3
        np.testing.assert_array_equal(part.labels, np.zeros(6))
        part = kmeans(np.array([[0.0, 0.0, 5.0, 5.0, 5.0]]), 3, restarts=2)
        assert part.labels[0] == part.labels[1] != part.labels[2]
        assert len(set(part.labels[2:].tolist())) == 1

    def test_labels_equal_with_assignment_loop(self, rng, monkeypatch):
        members = np.repeat(np.arange(6), 40)
        blobs = (rng.uniform(0.0, 20.0, size=(5, 6))[:, members]
                 + rng.standard_normal((5, 240)))
        grid = rng.integers(0, 3, size=(3, 200)).astype(float)
        sparse = np.maximum(rng.standard_normal((10, 500)), 0.0)
        cases = [(blobs, 6), (grid, 7), (sparse, 10)]
        got = [kmeans(data, k, restarts=3, seed=5).labels for data, k in cases]
        monkeypatch.setattr(kernels, "kmeans_assign", kmeans_assign_oracle)
        for (data, k), labels in zip(cases, got):
            np.testing.assert_array_equal(
                labels, kmeans(data, k, restarts=3, seed=5).labels)

    @pytest.mark.parametrize("max_iters", [1, 2, 300])
    def test_lloyd_wcss_is_that_of_the_final_centers(self, rng, max_iters):
        # A converged run reuses its last assignment's distances; they must
        # be those of the centers it returns with.
        points = rng.uniform(0.0, 1.0, size=(150, 3))
        centers = points[:4].copy()
        labels, wcss = metrics._lloyd(points, centers, max_iters)
        want_labels, d2 = kmeans_assign_oracle(points, centers)
        assert wcss == float(d2.sum())
        if max_iters == 300:
            np.testing.assert_array_equal(labels, want_labels)


@pytest.mark.parametrize("score", [nmi, error_rate, naive_precision])
def test_memory_scales_with_samples_not_cluster_pairs(score):
    # Singleton partitions have n clusters each; a dense confusion matrix of
    # them would take n^2 counts (69 MB at n = 3000).
    n = 3000
    a = Partition(np.arange(n), n)
    b = Partition(np.random.default_rng(3).permutation(n), n)
    tracemalloc.start()
    try:
        score(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_mismatched_sample_counts_rejected():
    a = Partition(np.array([0, 1]), 2)
    with pytest.raises(InvalidInputError):
        nmi(a, REF)
    with pytest.raises(InvalidInputError):
        error_rate(a, REF)
