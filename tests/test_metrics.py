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
                      nmi_oracle, np_oracle, sample_order_centers)

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
        np.testing.assert_array_equal(part.ids, [7, 3, 9])

    def test_ids_default_to_the_indices_and_match_the_count(self):
        np.testing.assert_array_equal(Partition(np.array([1, 0]), 2).ids, [0, 1])
        with pytest.raises(InvalidInputError, match="class ids"):
            Partition(np.array([1, 0]), 2, np.array([4]))

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

    def test_relabeling_invariance(self):
        relabeled = Partition(1 - OBT.labels, 2)
        assert error_rate(relabeled, REF) == error_rate(OBT, REF)

    def test_symmetric(self):
        assert error_rate(OBT, REF) == error_rate(REF, OBT)

    def test_equals_oracle_exactly(self, rng):
        pairs = [([1, 1, 2, 2], [1, 2, 2, 2])]
        for n in range(1, 7):
            parts = canonical_partitions(n, 3)
            pairs += [(la, lb) for la in parts for lb in parts]
        for _ in range(5):
            pairs.append((rng.integers(0, 4, size=60).tolist(),
                          rng.integers(0, 6, size=60).tolist()))
        for la, lb in pairs:
            assert error_rate(from_labels(la), from_labels(lb)) == er_oracle(
                la, lb)

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

    @pytest.mark.parametrize("scale", [1e160, 1e300])
    def test_data_whose_distances_could_overflow_rejected(self, rng, scale):
        # Squared distances of such data overflow; k-means++ then drew from
        # NaN probabilities after overflow warnings.
        with pytest.raises(InvalidInputError, match="sample .* squared norm"):
            kmeans(scale * rng.uniform(0.5, 1.0, size=(3, 40)), 3)

    def test_data_just_below_the_overflow_bound_clusters(self, rng):
        # Every sample's squared norm is within 1% of max/(8n); no sum
        # overflows, so nothing warns (warnings are errors here).
        data = rng.uniform(0.0, 1.0, size=(4, 60))
        data[:, :30] += 3.0
        data *= np.sqrt(0.99 * np.finfo(np.float64).max / (8 * 60)
                        / np.max(np.sum(data * data, axis=0)))
        part = kmeans(data, 2, restarts=3, seed=2)
        assert len(set(part.labels[:30])) == len(set(part.labels[30:])) == 1
        assert part.labels[0] != part.labels[30]

    def test_labels_equal_with_assignment_loop(self, rng, monkeypatch):
        members = np.repeat(np.arange(6), 40)
        blobs = (rng.uniform(0.0, 20.0, size=(5, 6))[:, members]
                 + rng.standard_normal((5, 240)))
        grid = rng.integers(0, 3, size=(3, 200)).astype(float)
        sparse = np.maximum(rng.standard_normal((10, 500)), 0.0)
        cases = [(blobs, 6), (grid, 7), (sparse, 10)]
        got = [kmeans(data, k, restarts=3, seed=5).labels for data, k in cases]
        calls = []

        def loop_labels(data, centers, sq_norms):
            calls.append(data.shape)
            return kmeans_assign_oracle(data.T, centers)[0]

        monkeypatch.setattr(kernels, "assign_labels", loop_labels)
        for (data, k), labels in zip(cases, got):
            np.testing.assert_array_equal(
                labels, kmeans(data, k, restarts=3, seed=5).labels)
        # Every restart of every case took at least one assignment step.
        assert len(calls) >= 3 * len(cases)

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("d", range(1, 12))
    def test_cluster_means_equal_mask_means_bit_for_bit(self, rng, d, scale):
        # Lloyd's labels depend on the centers' last bits, so the centre
        # step must add each cluster in sample order, singletons included:
        # for d >= 2 these are the boolean-mask means bit for bit, and for
        # d = 1 they replace numpy's pairwise sum of a single column.
        for n, k in ((1, 1), (7, 7), (40, 3), (500, 10), (2000, 25)):
            data = rng.random((d, n)) * scale
            labels = np.concatenate([np.arange(k), rng.integers(0, k, n - k)])
            rng.shuffle(labels)
            centers = np.empty((k, d))
            metrics._cluster_means(data, labels,
                                   np.bincount(labels, minlength=k), centers)
            np.testing.assert_array_equal(
                centers, sample_order_centers(data.T, labels, k))

    @pytest.mark.parametrize("max_iters", [1, 2, 300])
    def test_lloyd_wcss_is_that_of_the_final_centers(self, rng, max_iters):
        # Converged or stopped at the cap, the run returns its last
        # assignment with that assignment's distances, to the centers it
        # returns with.
        data = rng.uniform(0.0, 1.0, size=(3, 150))
        centers = data[:, :4].T.copy()
        labels, wcss = metrics._lloyd(data, np.sum(data * data, axis=0),
                                      centers, max_iters)
        want_labels, d2 = kmeans_assign_oracle(data.T, centers)
        assert wcss == float(d2.sum())
        np.testing.assert_array_equal(labels, want_labels)

    def test_only_the_last_lloyd_step_forms_distances(self, rng, monkeypatch):
        members = np.repeat(np.arange(4), 50)
        data = (rng.uniform(0.0, 5.0, size=(3, 4))[:, members]
                + rng.standard_normal((3, 200)))
        steps, gathers = [], []

        def counted(name, log):
            real = getattr(kernels, name)

            def call(*args):
                log.append(args)
                return real(*args)

            monkeypatch.setattr(kernels, name, call)

        counted("assign_labels", steps)
        counted("own_sq_dists", gathers)
        metrics._lloyd(data, np.sum(data * data, axis=0),
                       data[:, :4].T.copy(), 300)
        assert len(steps) >= 3 and len(gathers) == 1
        # A step that leaves clusters empty needs distances for its
        # re-seeds: here every one does.
        steps.clear()
        gathers.clear()
        metrics._lloyd(np.ones((2, 5)), np.full(5, 2.0), np.ones((3, 2)), 4)
        assert len(steps) == len(gathers) == 4


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


def test_kmeanspp_draw_is_generator_choice():
    # k-means++ draws its next center by searching the cumulative sum that
    # Generator.choice(n, p=p) forms, with one rng.random(). Both must give
    # the same index and leave the generator in the same state; this rests
    # on numpy's implementation of choice.
    for seed in range(2000):
        gen = np.random.default_rng(seed)
        n = int(gen.integers(1, 300))
        w = gen.uniform(size=n) ** 3
        w[gen.uniform(size=n) < 0.3] = 0.0
        w[gen.integers(n)] += 1e-3
        p = w / w.sum()
        a = np.random.default_rng([seed, 1])
        b = np.random.default_rng([seed, 1])
        assert metrics._draw_index(b, p) == a.choice(n, p=p), seed
        assert a.random() == b.random()


def test_mismatched_sample_counts_rejected():
    a = Partition(np.array([0, 1]), 2)
    with pytest.raises(InvalidInputError):
        nmi(a, REF)
    with pytest.raises(InvalidInputError):
        error_rate(a, REF)
