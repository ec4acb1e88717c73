import math
import re

import numpy as np
import pytest

from mmfnd import align
from mmfnd import tensor as T
from mmfnd.errors import ConfigError
from mmfnd.rng import Rng

from gradcheck import finite_diff_check, weighted_sum


def _unit_rows(gen, n, d):
    e = gen.normal(size=(n, d))
    return e / np.linalg.norm(e, axis=1, keepdims=True)


def test_shared_encode_identity_345():
    w = T.Param("w", np.eye(4))
    b = T.Param("b", np.zeros(4))
    out = align.shared_encode(T.Tensor(np.array([3.0, 4.0, 0.0, 0.0])), w, b)
    np.testing.assert_allclose(out.data, [0.6, 0.8, 0.0, 0.0])


def test_shared_encode_unit_norm_everywhere():
    gen = Rng(31).stream("shared-norm")
    w = T.Param("w", gen.normal(size=(6, 6)))
    b = T.Param("b", gen.normal(size=6))
    for _ in range(1000):
        out = align.shared_encode(T.Tensor(gen.normal(size=6)), w, b)
        assert abs(np.linalg.norm(out.data) - 1.0) < 1e-9


def test_shared_encode_gradcheck():
    gen = Rng(32).stream("shared-grad")
    w = T.Param("w", gen.normal(size=(5, 5)))
    b = T.Param("b", gen.normal(size=5))
    r = gen.normal(size=5)
    weights = gen.normal(size=5)

    def f():
        return weighted_sum(align.shared_encode(T.Tensor(r), w, b), weights)

    assert finite_diff_check(f, [w, b]).max_rel_err < 1e-4


def test_similarity_singleton():
    e = T.Tensor(np.array([[1.0, 0.0]]))
    p = align.similarity_matrix(e, e, tau=1.0)
    np.testing.assert_allclose(p.data, [[1.0]])


def test_similarity_orthogonal_pair_matches_analytic_value():
    e = T.Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
    p = align.similarity_matrix(e, e, tau=1.0)
    diag = math.e / (math.e + 1.0)  # about 0.73106
    np.testing.assert_allclose(p.data, [[diag, 1 - diag], [1 - diag, diag]], atol=1e-12)


def test_similarity_identical_embeddings_uniform():
    row = np.array([0.6, 0.8])
    e = T.Tensor(np.tile(row, (4, 1)))
    p = align.similarity_matrix(e, e, tau=0.5)
    np.testing.assert_allclose(p.data, np.full((4, 4), 0.25), atol=1e-12)


def test_similarity_rejects_bad_temperature():
    e = T.Tensor(np.eye(2))
    with pytest.raises(ConfigError):
        align.similarity_matrix(e, e, tau=0.0)
    with pytest.raises(ConfigError):
        align.similarity_matrix(e, e, tau=-1.0)


@pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf])
def test_similarity_and_loss_reject_a_non_finite_temperature_naming_tau(tau):
    e = T.Tensor(np.eye(2))
    for call in (align.similarity_matrix, align.contrastive_loss):
        with pytest.raises(ConfigError, match=f"^tau must be a finite positive temperature, got {tau}$"):
            call(e, e, tau)


def test_similarity_matrix_is_off_the_tape_and_matches_the_loss_logits():
    gen = Rng(43).stream("sim-off-tape")
    e_a, e_b = T.Param("e_a", _unit_rows(gen, 4, 5)), T.Param("e_b", _unit_rows(gen, 4, 5))
    p = align.similarity_matrix(e_a, e_b, 0.25)
    assert p._parents == ()
    logits = e_a.data @ e_b.data.T / 0.25
    expected = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    np.testing.assert_allclose(p.data, expected, rtol=1e-13)


def test_similarity_rows_are_distributions():
    gen = Rng(33).stream("sim-rows")
    for _ in range(50):
        n = int(gen.integers(1, 6))
        e_a = T.Tensor(_unit_rows(gen, n, 8))
        e_b = T.Tensor(_unit_rows(gen, n, 8))
        p = align.similarity_matrix(e_a, e_b, tau=0.07).data
        assert np.all(p >= 0)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-9)


def _oracle_infonce(e_v, e_t, tau, floor=0.0):
    # plain-python bidirectional InfoNCE over matched pairs
    n, d = len(e_v), len(e_v[0])

    def direction(a, b):
        total = 0.0
        for i in range(n):
            logits = [sum(a[i][k] * b[j][k] for k in range(d)) / tau for j in range(n)]
            mx = max(logits)
            denom = sum(math.exp(v - mx) for v in logits)
            p_ii = math.exp(logits[i] - mx) / denom
            total += -math.log(max(p_ii, floor))
        return total / n

    return 0.5 * (direction(e_v, e_t) + direction(e_t, e_v))


@pytest.mark.parametrize("shape_vt,shape_tv", [((3, 2), (2, 2)), ((3,), (3,)), ((2, 2), (2, 3))])
def test_contrastive_loss_rejects_non_square_or_unequal_inputs_naming_both_shapes(shape_vt, shape_tv):
    e_v, e_t = T.Tensor(np.full(shape_vt, 0.5)), T.Tensor(np.full(shape_tv, 0.5))
    with pytest.raises(T.ShapeError, match=re.escape(f"got {shape_vt} and {shape_tv}")):
        align.contrastive_loss(e_v, e_t, 1.0)


def test_contrastive_loss_singleton_is_zero():
    e = T.Tensor(np.array([[1.0, 0.0]]))
    loss = align.contrastive_loss(e, e, 1.0)
    assert loss.item() == pytest.approx(0.0, abs=1e-12)


def test_contrastive_loss_pinned_orthogonal_case():
    e = T.Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
    loss = align.contrastive_loss(e, e, 1.0)
    expected = -math.log(math.e / (math.e + 1.0))  # about 0.31326
    assert loss.item() == pytest.approx(expected, abs=1e-12)
    assert loss.item() == pytest.approx(0.31326, abs=5e-6)


def test_contrastive_loss_matches_brute_force_oracle():
    gen = Rng(34).stream("infonce-oracle")
    for _ in range(10):
        n = int(gen.integers(2, 5))
        e_v = _unit_rows(gen, n, 6)
        e_t = _unit_rows(gen, n, 6)
        tau = float(gen.uniform(0.05, 2.0))
        loss = align.contrastive_loss(T.Tensor(e_v), T.Tensor(e_t), tau).item()
        expected = _oracle_infonce(e_v.tolist(), e_t.tolist(), tau)
        assert loss == pytest.approx(expected, abs=1e-10)


def test_contrastive_loss_reads_the_diagonals_of_both_similarity_matrices():
    gen = Rng(42).stream("infonce-explicit")
    e_v, e_t = T.Tensor(_unit_rows(gen, 5, 6)), T.Tensor(_unit_rows(gen, 5, 6))
    p_vt = align.similarity_matrix(e_v, e_t, 0.1).data
    p_tv = align.similarity_matrix(e_t, e_v, 0.1).data
    expected = -0.5 * (np.log(np.diag(p_vt)).mean() + np.log(np.diag(p_tv)).mean())
    assert align.contrastive_loss(e_v, e_t, 0.1).item() == pytest.approx(expected, abs=1e-13)


def test_contrastive_loss_swap_symmetry():
    gen = Rng(35).stream("infonce-swap")
    e_v = T.Tensor(_unit_rows(gen, 4, 6))
    e_t = T.Tensor(_unit_rows(gen, 4, 6))
    assert align.contrastive_loss(e_v, e_t, 0.5).item() == align.contrastive_loss(e_t, e_v, 0.5).item()


def test_identical_embedding_sets_make_directions_equal():
    gen = Rng(36).stream("infonce-ident")
    e = _unit_rows(gen, 3, 5)
    p_vt = align.similarity_matrix(T.Tensor(e), T.Tensor(e), 0.2)
    p_tv = align.similarity_matrix(T.Tensor(e), T.Tensor(e), 0.2)
    np.testing.assert_array_equal(p_vt.data, p_tv.data)


def test_temperature_limit_reaches_log_n():
    gen = Rng(37).stream("infonce-temp")
    for n in (2, 4, 8):
        e_v = T.Tensor(_unit_rows(gen, n, 8))
        e_t = T.Tensor(_unit_rows(gen, n, 8))
        loss = align.contrastive_loss(e_v, e_t, tau=1e6).item()
        assert loss == pytest.approx(math.log(n), abs=1e-3)


def test_raising_positive_pair_logit_lowers_loss():
    gen = Rng(38).stream("infonce-mono")
    for _ in range(20):
        n = 4
        logits = gen.normal(size=(n, n))
        # one-hot rows of e_v against the columns of the logits: e_v e_t^T = logits
        e_v = T.Tensor(np.eye(n))
        base = align.contrastive_loss(e_v, T.Tensor(logits.T.copy()), 1.0).item()
        i = int(gen.integers(0, n))
        bumped = logits.copy()
        bumped[i, i] += float(gen.uniform(0.05, 1.0))
        after = align.contrastive_loss(e_v, T.Tensor(bumped.T.copy()), 1.0).item()
        assert after < base


def _half_anti_aligned():
    """Pair 0 anti-aligned and pair 1 aligned at tau = 0.02: the logits are
    -50 and +50 on the diagonal and 0 off it, so the diagonal probability
    of pair 0 is about 2e-22 in both directions, below the clamp."""
    return np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([[-1.0, 0.0], [0.0, 1.0]]), 0.02


def test_clamp_events_are_reported():
    e_v, e_t, tau = _half_anti_aligned()
    diagnostics = {}
    align.contrastive_loss(T.Tensor(e_v), T.Tensor(e_t), tau, diagnostics)
    assert diagnostics["clamped_log_events"] == 2
    assert math.isfinite(align.contrastive_loss(T.Tensor(e_v), T.Tensor(e_t), tau).item())


def test_full_contrastive_gradcheck():
    gen = Rng(39).stream("infonce-grad")
    n, d = 3, 4
    w_st = T.Param("w_st", gen.normal(size=(d, d)))
    b_st = T.Param("b_st", gen.normal(size=d) * 0.1)
    w_sv = T.Param("w_sv", gen.normal(size=(d, d)))
    b_sv = T.Param("b_sv", gen.normal(size=d) * 0.1)
    r_ts = gen.normal(size=(n, d))
    r_vs = gen.normal(size=(n, d))

    def f():
        e_t = align.shared_encode(T.Tensor(r_ts), w_st, b_st)
        e_v = align.shared_encode(T.Tensor(r_vs), w_sv, b_sv)
        return align.contrastive_loss(e_v, e_t, tau=0.5)

    assert finite_diff_check(f, [w_st, b_st, w_sv, b_sv]).max_rel_err < 1e-4


def test_contrastive_loss_rejects_bad_temperature():
    e = T.Tensor(np.eye(2))
    with pytest.raises(ConfigError):
        align.contrastive_loss(e, e, 0.0)


def _one_clamped_pair(gen):
    """Three pairs at tau = 1: pair 0 is anti-aligned at norm 10 and
    orthogonal to every other row, so its logit is -100 against 0 in its
    row and its column and both of its diagonal probabilities are about
    1e-44, below the clamp. Pairs 1 and 2 are random unit rows with
    moderate logits."""
    e_v, e_t = np.zeros((3, 3)), np.zeros((3, 3))
    e_v[0, 0], e_t[0, 0] = 10.0, -10.0
    e_v[1:, 1:] = _unit_rows(gen, 2, 2)
    e_t[1:, 1:] = _unit_rows(gen, 2, 2)
    return e_v, e_t


def test_contrastive_loss_matches_the_clamping_oracle_on_clamped_rows():
    e_v, e_t = _one_clamped_pair(Rng(40).stream("infonce-clamped"))
    diagnostics = {}
    loss = align.contrastive_loss(T.Tensor(e_v), T.Tensor(e_t), 1.0, diagnostics).item()
    assert diagnostics["clamped_log_events"] == 2
    expected = _oracle_infonce(e_v.tolist(), e_t.tolist(), 1.0, floor=align.LOG_CLAMP)
    assert loss == pytest.approx(expected, abs=1e-10)
    # unclamped, pair 0 would cost about 100 nats per direction instead of -log(1e-12)
    assert loss < _oracle_infonce(e_v.tolist(), e_t.tolist(), 1.0) - 10.0


def test_contrastive_loss_gradient_matches_finite_differences_with_clamped_rows():
    """The clamped pair's diagonal passes no gradient in either direction,
    but its rows still get the gradient of the unclamped probabilities
    they take part in."""
    e_v, e_t = _one_clamped_pair(Rng(41).stream("infonce-clamped-grad"))
    pv, pt = T.Param("e_v", e_v), T.Param("e_t", e_t)
    report = finite_diff_check(lambda: align.contrastive_loss(pv, pt, 1.0), [pv, pt])
    assert report.max_rel_err < 1e-6
    assert np.any(pv.grad[1:] != 0.0) and np.any(pt.grad[1:] != 0.0)
