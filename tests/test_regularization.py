"""FLOPs / Lp penalties and top-k pruning, with finite-difference gradient checks."""

import numpy as np
import pytest

from conftest import to_dense

from lsrkit.core import SparseVector
from lsrkit.regularization import flops_penalty, lp_penalty, topk_mask, topk_prune, topk_schedule


def random_sparse(rng, vocab_size=16, max_nnz=8, positive=True):
    nnz = int(rng.integers(1, min(max_nnz, vocab_size) + 1))
    ids = rng.choice(vocab_size, size=nnz, replace=False)
    lo = 0.1 if positive else -3.0
    return SparseVector({int(t): float(rng.uniform(lo, 3.0)) for t in ids})


def dense(batch, vocab_size):
    return np.array([to_dense(v, vocab_size) for v in batch], dtype=np.float64)


class TestFlopsPenalty:
    def test_hand_example(self):
        value, _ = flops_penalty(np.array([[1.0, 0.0, 0.0, 0.0], [1.0, 2.0, 0.0, 0.0]]))
        assert value == pytest.approx(2.0)  # means (1, 1)

    def test_all_zero_batch(self):
        value, grads = flops_penalty(np.zeros((2, 4)))
        assert value == 0.0
        assert not grads.any()

    def test_single_vector(self):
        value, _ = flops_penalty(np.array([[3.0, 0.0, 0.0, 0.0]]))
        assert value == pytest.approx(9.0)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            flops_penalty(np.zeros((0, 4)))

    def test_matches_dense_matrix_oracle(self, rng):
        for _ in range(50):
            vocab_size = int(rng.integers(4, 64))
            batch = [random_sparse(rng, vocab_size) for _ in range(int(rng.integers(1, 8)))]
            value, _ = flops_penalty(dense(batch, vocab_size))
            want = sum(sum(v.entries.get(t, 0.0) for v in batch) ** 2 for t in range(vocab_size)) / len(batch) ** 2
            assert value == pytest.approx(want, abs=1e-12)

    def test_gradient_matches_finite_differences(self, rng):
        for _ in range(100):
            vocab_size = 12
            sparse = [random_sparse(rng, vocab_size) for _ in range(int(rng.integers(1, 5)))]
            batch = dense(sparse, vocab_size)
            _, grads = flops_penalty(batch)
            j = int(rng.integers(len(sparse)))
            entries = sorted(sparse[j].entries)
            t = entries[int(rng.integers(len(entries)))]
            h = 1e-5

            def value_at(w):
                perturbed = batch.copy()
                perturbed[j, t] = w
                return flops_penalty(perturbed)[0]

            w0 = batch[j, t]
            numeric = (value_at(w0 + h) - value_at(w0 - h)) / (2 * h)
            assert grads[j, t] == pytest.approx(numeric, rel=1e-4)

    def test_gradient_covers_batch_support(self, rng):
        _, grads = flops_penalty(np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 2.0, 0.0, 0.0]]))
        assert set(np.flatnonzero(grads[0])) == {0, 1}

    def test_zeroing_an_entry_never_increases_penalty(self, rng):
        for _ in range(50):
            batch = dense([random_sparse(rng) for _ in range(3)], 16)
            value, _ = flops_penalty(batch)
            j = int(rng.integers(3))
            zeroed = batch.copy()
            zeroed[j, np.flatnonzero(batch[j])[0]] = 0.0
            assert flops_penalty(zeroed)[0] <= value + 1e-12


class TestLpPenalty:
    def test_l2_345(self):
        value, _ = lp_penalty(np.array([[3.0, 4.0]]), p=2)
        assert value == pytest.approx(5.0)

    def test_l1(self):
        value, grad = lp_penalty(np.array([[3.0, 4.0, 0.0]]), p=1)
        assert value == pytest.approx(7.0)
        assert grad.tolist() == [[1.0, 1.0, 0.0]]

    def test_empty_vector(self):
        assert lp_penalty(np.zeros((1, 3)), p=1)[0] == 0.0
        value, grad = lp_penalty(np.zeros((1, 3)), p=2)
        assert value == 0.0
        assert not grad.any()

    def test_bad_p_rejected(self):
        with pytest.raises(ValueError):
            lp_penalty(np.array([[1.0]]), p=3)

    @pytest.mark.parametrize("p", [1, 2])
    def test_batch_value_is_mean_row_norm(self, p):
        value, _ = lp_penalty(np.array([[3.0, 4.0], [0.0, 1.0]]), p)
        assert value == pytest.approx((7.0 if p == 1 else 5.0) / 2 + 0.5)

    @pytest.mark.parametrize("p", [1, 2])
    def test_gradient_matches_finite_differences(self, rng, p):
        for _ in range(100):
            v = random_sparse(rng)
            batch = dense([v], 16)
            _, grad = lp_penalty(batch, p)
            t = sorted(v.entries)[int(rng.integers(v.nnz))]
            h = 1e-5
            up, down = batch.copy(), batch.copy()
            up[0, t] += h
            down[0, t] -= h
            numeric = (lp_penalty(up, p)[0] - lp_penalty(down, p)[0]) / (2 * h)
            assert grad[0, t] == pytest.approx(numeric, rel=1e-4)


class TestTopkPrune:
    def test_keeps_largest(self):
        got = topk_prune(SparseVector({0: 3.0, 1: 1.0, 2: 2.0}), k=2)
        assert got.entries == {0: 3.0, 2: 2.0}

    def test_k_zero(self):
        assert topk_prune(SparseVector({0: 3.0}), k=0) == SparseVector()

    def test_tie_breaks_to_smaller_id(self):
        got = topk_prune(SparseVector({0: 1.0, 1: 1.0}), k=1)
        assert got.entries == {0: 1.0}

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            topk_prune(SparseVector(), k=-1)

    def test_idempotent(self, rng):
        for _ in range(50):
            v = random_sparse(rng)
            k = int(rng.integers(0, 10))
            once = topk_prune(v, k)
            assert topk_prune(once, k) == once

    def test_pruned_query_never_scores_higher(self, rng):
        for _ in range(50):
            q = random_sparse(rng)
            d = random_sparse(rng)
            k = int(rng.integers(0, q.nnz + 1))
            assert topk_prune(q, k).dot(d) <= q.dot(d) + 1e-12


class TestTopkMask:
    def test_agrees_with_topk_prune(self, rng):
        for _ in range(50):
            v = random_sparse(rng)
            v = SparseVector({**v.entries, min(v.entries): max(v.entries.values())})  # force a tie
            k = int(rng.integers(0, 10))
            w = np.array(to_dense(v, 16))
            assert SparseVector.from_dense(w * topk_mask(w, k)) == topk_prune(v, k)


    @pytest.mark.parametrize("k", [0, 1, 3, 8, 9, 20])
    def test_batch_equals_each_row(self, rng, k):
        # small integer weights tie often; rows 1 and 3 are all zero, of either sign
        W = rng.integers(-2, 3, size=(6, 8)).astype(np.float64)
        W[1], W[3] = 0.0, -0.0
        mask = topk_mask(W, k)
        assert mask.tobytes() == np.stack([topk_mask(w, k) for w in W]).tobytes()
        assert not mask[1].any() and not mask[3].any()


class TestTopkSchedule:
    def test_linear_decay_endpoints(self):
        assert topk_schedule(100, 10, steps=10, step=0) == 100
        assert topk_schedule(100, 10, steps=10, step=9) == 10

    def test_monotone_non_increasing(self):
        ks = [topk_schedule(100, 10, 20, s) for s in range(20)]
        assert all(a >= b for a, b in zip(ks, ks[1:]))
