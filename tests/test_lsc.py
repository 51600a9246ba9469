import copy

import numpy as np
import numpy.testing as npt
import pytest

from podlearn.errors import ContractError, FormatError, NumericError
from podlearn.gradcheck import gradient_check
from podlearn.lsc import (
    ProxyBank,
    cross_entropy_loss,
    imprint_new_classes,
    kmeans,
    lsc_scores,
    nca_hinge_loss,
)
from podlearn.protocol import IncrementalRunner
from podlearn.tensor import Tensor, mul, no_grad, tsum

from oracles import (
    kmeans_two_cluster_optima,
    lsc_scores_oracle,
    nca_hinge_oracle,
)


def _bank(theta):
    theta = [np.asarray(t, dtype=np.float64) for t in theta]
    bank = ProxyBank(theta[0].shape[1], theta[0].shape[0])
    for t in theta:
        bank.add_class(t)
    return bank


# -- degenerate inputs -----------------------------------------------------------


def test_zero_norm_embedding_is_numeric_fault():
    bank = _bank([[[1.0, 0.0]], [[0.0, 1.0]]])
    with pytest.raises(NumericError):
        lsc_scores(Tensor([[0.0, 0.0]]), bank)


def test_zero_norm_proxy_is_numeric_fault():
    bank = _bank([[[1.0, 0.0]], [[0.0, 0.0]]])
    with pytest.raises(NumericError):
        lsc_scores(Tensor([[1.0, 0.0]]), bank)


# -- multi-proxy scores ----------------------------------------------------------


def test_k1_scores_equal_plain_cosine():
    rng = np.random.default_rng(1)
    theta = [rng.normal(size=(1, 5)) for _ in range(3)]
    h = rng.normal(size=(4, 5))
    got = lsc_scores(Tensor(h), _bank(theta)).data
    h_n = h / np.linalg.norm(h, axis=1, keepdims=True)
    for c, t in enumerate(theta):
        t_n = t[0] / np.linalg.norm(t[0])
        npt.assert_allclose(got[:, c], h_n @ t_n, atol=1e-12)


def test_all_proxies_equal_to_embedding_scores_one():
    h = np.array([[0.6, 0.8]])
    bank = _bank([np.tile(h, (3, 1))])
    got = lsc_scores(Tensor(h), bank).data
    npt.assert_allclose(got, [[1.0]], atol=1e-12)


def test_scores_match_oracle_k3():
    rng = np.random.default_rng(2)
    theta = [rng.normal(size=(3, 6)) for _ in range(4)]
    h = rng.normal(size=(5, 6))
    got = lsc_scores(Tensor(h), _bank(theta)).data
    want = lsc_scores_oracle(h.tolist(), [t.tolist() for t in theta])
    npt.assert_allclose(got, want, atol=1e-12)


def test_scores_bounded_by_unit_interval():
    rng = np.random.default_rng(3)
    theta = [rng.normal(size=(4, 8)) for _ in range(5)]
    got = lsc_scores(Tensor(rng.normal(size=(6, 8))), _bank(theta)).data
    assert got.min() >= -1.0 - 1e-12
    assert got.max() <= 1.0 + 1e-12


def test_scores_scale_invariant():
    rng = np.random.default_rng(4)
    theta = [rng.normal(size=(2, 5)) for _ in range(3)]
    h = rng.normal(size=(2, 5))
    bank = _bank(theta)
    a = lsc_scores(Tensor(h), bank).data
    b = lsc_scores(Tensor(7.5 * h), bank).data
    npt.assert_allclose(a, b, atol=1e-12)


# (B, C, K) with all three extents distinct, C == 1 and K == 1 included, so a
# swapped class/proxy order in the proxy-major layout cannot pass
LAYOUT_SHAPES = [(5, 7, 3), (4, 2, 6), (3, 1, 4), (6, 4, 1)]


@pytest.mark.parametrize("B,C,K", LAYOUT_SHAPES)
def test_scores_match_oracle_and_leave_theta_alone(B, C, K):
    rng = np.random.default_rng(100 + 7 * B + C + K)
    theta = rng.normal(size=(C, K, 5))
    h = rng.normal(size=(B, 5))
    bank = _bank(theta)
    got = lsc_scores(Tensor(h), bank).data
    assert got.shape == (B, C) and got.flags.c_contiguous
    npt.assert_allclose(got, lsc_scores_oracle(h.tolist(), theta.tolist()), atol=1e-12)
    assert bank.theta.data.tobytes() == theta.tobytes()


@pytest.mark.parametrize("B,C,K", LAYOUT_SHAPES)
def test_scores_gradients_into_embedding_and_proxies(B, C, K):
    rng = np.random.default_rng(200 + 7 * B + C + K)
    bank = _bank(rng.normal(size=(C, K, 5)))
    h = Tensor(rng.normal(size=(B, 5)))
    weights = Tensor(rng.normal(size=(B, C)))

    def of_theta(theta):
        bank.theta = theta
        return tsum(mul(lsc_scores(h, bank), weights))

    theta = Tensor(bank.theta.data.copy())
    assert gradient_check(of_theta, theta, eps=1e-5) <= 1e-6
    bank.theta = theta
    assert gradient_check(lambda x: tsum(mul(lsc_scores(x, bank), weights)), h,
                          eps=1e-5) <= 1e-6


def test_zero_norm_last_proxy_of_second_class_is_numeric_fault():
    rng = np.random.default_rng(24)
    theta = rng.normal(size=(3, 4, 5))
    theta[1, -1] = 0.0
    with pytest.raises(NumericError, match="proxy weights"):
        lsc_scores(Tensor(rng.normal(size=(2, 5))), _bank(theta))


def test_scores_without_grad_are_bitwise_the_recorded_scores():
    rng = np.random.default_rng(25)
    bank = _bank(rng.normal(size=(6, 3, 5)))
    h = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    recorded = lsc_scores(h, bank)
    assert recorded.requires_grad
    with no_grad():
        plain = lsc_scores(h, bank)
    assert not plain.requires_grad
    assert plain.data.tobytes() == recorded.data.tobytes()


# -- NCA hinge loss ---------------------------------------------------------------


def test_nca_equal_scores_zero_margin_is_zero():
    yhat = Tensor([[0.3, 0.3]])
    assert nca_hinge_loss(yhat, [0], eta=2.0, delta=0.0).item() == pytest.approx(0.0)


def test_nca_equal_scores_with_margin_costs_margin():
    yhat = Tensor([[0.3, 0.3]])
    got = nca_hinge_loss(yhat, [1], eta=1.0, delta=0.6).item()
    assert got == pytest.approx(0.6, abs=1e-12)


def test_nca_large_margin_clamps_to_zero():
    yhat = Tensor([[0.99, -0.9, -0.95]])
    assert nca_hinge_loss(yhat, [0], eta=5.0, delta=0.1).item() == 0.0


def test_nca_matches_oracle():
    rng = np.random.default_rng(5)
    yhat = rng.uniform(-1, 1, size=(6, 4))
    labels = rng.integers(0, 4, size=6)
    got = nca_hinge_loss(Tensor(yhat), labels, eta=3.0, delta=0.25).item()
    want = nca_hinge_oracle(yhat.tolist(), labels.tolist(), 3.0, 0.25)
    assert got == pytest.approx(want, abs=1e-12)


def test_nca_large_eta_does_not_overflow():
    # eta * score = 720 / 640: exp of either overflows float64, the shifted
    # logsumexp does not; loss = 640 - (720 - 800 * 0.6)
    assert nca_hinge_loss(Tensor([[0.9, 0.8]]), [0], eta=800.0, delta=0.6).item() == 400.0


def test_nca_single_class_rejected():
    with pytest.raises(ContractError):
        nca_hinge_loss(Tensor([[0.5]]), [0], eta=1.0, delta=0.0)


def test_nca_bad_labels_rejected():
    with pytest.raises(ContractError):
        nca_hinge_loss(Tensor([[0.5, 0.1]]), [2], eta=1.0, delta=0.0)


@pytest.mark.parametrize("labels", [np.array([0.7, 1.9]), np.array([True, False])])
def test_nca_non_integer_labels_rejected(labels):
    yhat = Tensor([[0.5, 0.1], [0.2, 0.3]])
    with pytest.raises(ContractError, match=f"dtype {labels.dtype}"):
        nca_hinge_loss(yhat, labels, eta=2.0, delta=0.6)


@pytest.mark.parametrize("labels", [[0.0, 1.0], [True, False]])
def test_cross_entropy_non_integer_labels_rejected(labels):
    with pytest.raises(ContractError, match="labels must be integers"):
        cross_entropy_loss(Tensor([[0.5, 0.1], [0.2, 0.3]]), labels, eta=2.0)


def test_nca_monotone_in_target_score():
    # pre-hinge loss decreases as the true-class score rises, others fixed
    vals = []
    for s in np.linspace(-0.5, 0.5, 7):
        yhat = Tensor([[s, 0.2, -0.1]])
        vals.append(nca_hinge_loss(yhat, [0], eta=2.0, delta=0.9).item())
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_nca_learns_through_eta_tensor():
    eta = Tensor(np.asarray(2.0), requires_grad=True)
    yhat = Tensor([[0.1, 0.4]])
    loss = nca_hinge_loss(yhat, [0], eta=eta, delta=0.1)
    loss.backward()
    assert eta.grad is not None and abs(float(eta.grad)) > 0


def test_gradients_flow_through_scores_into_loss():
    # composite lsc_scores -> nca_hinge_loss, checked against central
    # differences away from the hinge kink
    rng = np.random.default_rng(20)
    theta = [rng.normal(size=(3, 5)) for _ in range(3)]
    bank = _bank(theta)
    labels = np.array([0, 2])

    def composite(h):
        return nca_hinge_loss(lsc_scores(h, bank), labels, eta=2.0, delta=0.4)

    for _ in range(5):
        point = Tensor(rng.normal(size=(2, 5)))
        assert composite(point).item() > 0.05  # away from the kink
        assert gradient_check(composite, point, eps=1e-5) <= 1e-4


def test_gradients_flow_through_scores_into_proxies():
    # same composite, differentiated with respect to the (C, K, D) proxy tensor
    rng = np.random.default_rng(21)
    bank = _bank([rng.normal(size=(3, 5)) for _ in range(3)])
    h = Tensor(rng.normal(size=(3, 5)))
    labels = np.array([0, 2, 1])

    def composite(theta):
        bank.theta = theta
        return nca_hinge_loss(lsc_scores(h, bank), labels, eta=2.0, delta=0.4)

    for _ in range(5):
        point = Tensor(rng.normal(size=(3, 3, 5)))
        assert composite(point).item() > 0.05  # away from the kink
        assert gradient_check(composite, point, eps=1e-5) <= 1e-4


def test_scores_gradient_into_proxies_k3():
    # lsc_scores alone, weighted so each class's column counts differently
    rng = np.random.default_rng(22)
    bank = _bank([rng.normal(size=(3, 5)) for _ in range(4)])
    h = Tensor(rng.normal(size=(3, 5)))
    weights = Tensor(rng.normal(size=(3, 4)))

    def weighted(theta):
        bank.theta = theta
        return tsum(mul(lsc_scores(h, bank), weights))

    for _ in range(5):
        point = Tensor(rng.normal(size=(4, 3, 5)))
        assert gradient_check(weighted, point, eps=1e-5) <= 1e-4


def test_nca_gradients_into_eta_and_scores_with_an_inactive_row():
    # row 0 clears its margin (pre-hinge -1.6), rows 1 and 2 do not (about
    # 1.0 and 1.7): every margin is far from the kink
    yhat = np.array([[0.9, -0.5, -0.6], [0.1, 0.3, 0.2], [-0.2, 0.4, 0.0]])
    labels, delta = np.array([0, 1, 2]), 0.3
    eta = Tensor(np.asarray(2.0))
    assert gradient_check(lambda e: nca_hinge_loss(Tensor(yhat), labels, e, delta),
                          eta, eps=1e-5) <= 1e-4
    assert gradient_check(lambda t: nca_hinge_loss(t, labels, eta, delta),
                          Tensor(yhat), eps=1e-5) <= 1e-4

    scores = Tensor(yhat, requires_grad=True)
    nca_hinge_loss(scores, labels, Tensor(np.asarray(2.0), requires_grad=True), delta).backward()
    assert (scores.grad[0] == 0.0).all()
    assert (scores.grad[1:] != 0.0).all()


def test_cross_entropy_gradients_into_scores_and_eta():
    rng = np.random.default_rng(23)
    yhat = rng.uniform(-1, 1, size=(4, 3))
    labels = np.array([0, 2, 1, 2])
    eta = Tensor(np.asarray(2.5))
    assert gradient_check(lambda t: cross_entropy_loss(t, labels, eta),
                          Tensor(yhat), eps=1e-5) <= 1e-4
    assert gradient_check(lambda e: cross_entropy_loss(Tensor(yhat), labels, e),
                          eta, eps=1e-5) <= 1e-4


def test_cross_entropy_matches_definition():
    rng = np.random.default_rng(6)
    yhat = rng.uniform(-1, 1, size=(4, 3))
    labels = rng.integers(0, 3, size=4)
    got = cross_entropy_loss(Tensor(yhat), labels, eta=2.0).item()
    scaled = 2.0 * yhat
    want = float(
        np.mean(
            np.log(np.exp(scaled).sum(axis=1)) - scaled[np.arange(4), labels]
        )
    )
    assert got == pytest.approx(want, abs=1e-12)


def test_cross_entropy_large_eta_does_not_overflow():
    eta = Tensor(np.asarray(800.0), requires_grad=True)
    yhat = Tensor([[0.9, 0.8]], requires_grad=True)
    loss = cross_entropy_loss(yhat, [1], eta)
    # log(exp(720) + exp(640)) - 640 = 80 + log1p(exp(-80)), which rounds to 80
    assert loss.item() == 80.0
    loss.backward()
    npt.assert_allclose(yhat.grad, [[800.0, -800.0]], atol=1e-9)
    assert eta.grad == pytest.approx(0.1, abs=1e-12)


# -- k-means ------------------------------------------------------------------------


def test_kmeans_k1_is_mean():
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(9, 3))
    npt.assert_allclose(kmeans(pts, 1, seed=0)[0], pts.mean(axis=0), atol=1e-12)


def test_kmeans_identical_points():
    pts = np.tile([2.0, -1.0], (6, 1))
    out = kmeans(pts, 3, seed=0)
    npt.assert_allclose(out, np.tile([2.0, -1.0], (3, 1)), atol=1e-12)


def test_kmeans_k_equals_n_distinct_points():
    rng = np.random.default_rng(8)
    pts = rng.normal(size=(5, 2))
    out = kmeans(pts, 5, seed=3)
    got = sorted(map(tuple, np.round(out, 9)))
    want = sorted(map(tuple, np.round(pts, 9)))
    npt.assert_allclose(got, want, atol=1e-9)


def test_kmeans_wcss_monotone_in_iterations():
    rng = np.random.default_rng(9)
    pts = rng.normal(size=(30, 4))
    prev = np.inf
    for iters in range(1, 8):
        cents = kmeans(pts, 3, iters=iters, seed=11)
        d2 = ((pts[:, None, :] - cents[None]) ** 2).sum(axis=2)
        wcss = d2.min(axis=1).sum()
        assert wcss <= prev + 1e-9
        prev = wcss


def test_kmeans_matches_bruteforce_two_clusters():
    rng = np.random.default_rng(10)
    for trial in range(20):
        n = int(rng.integers(4, 13))
        pts = rng.normal(size=(n, 2))
        cents = kmeans(pts, 2, seed=int(rng.integers(1 << 30)))
        d2 = ((pts[:, None, :] - cents[None]) ** 2).sum(axis=2)
        wcss = d2.min(axis=1).sum()
        best, stable = kmeans_two_cluster_optima(pts.tolist())
        assert any(abs(wcss - s) <= 1e-9 for s in stable), (
            f"trial {trial}: wcss {wcss} not a certified local optimum"
        )
        assert wcss >= best - 1e-9


def test_kmeans_contracts():
    pts = np.zeros((3, 2))
    with pytest.raises(ContractError):
        kmeans(pts, 0)
    with pytest.raises(ContractError):
        kmeans(pts, 4)
    with pytest.raises(ContractError):
        kmeans(pts, 1, iters=0)


# -- imprinting ------------------------------------------------------------------------


def test_imprint_k1_is_mean_embedding():
    rng = np.random.default_rng(11)
    feats = rng.normal(size=(8, 5))
    (proxies,) = imprint_new_classes([feats], 1, seed=0)
    npt.assert_allclose(proxies, feats.mean(axis=0, keepdims=True), atol=1e-12)


def test_imprint_k_equals_samples():
    rng = np.random.default_rng(12)
    feats = rng.normal(size=(4, 3))
    (proxies,) = imprint_new_classes([feats], 4, seed=5)
    got = sorted(map(tuple, np.round(proxies, 9)))
    want = sorted(map(tuple, np.round(feats, 9)))
    npt.assert_allclose(got, want, atol=1e-9)


def test_imprint_two_blobs_recovers_means():
    rng = np.random.default_rng(13)
    sigma, n = 0.05, 6
    blob_a = np.array([1.0, 0.0]) + sigma * rng.normal(size=(n, 2))
    blob_b = np.array([-1.0, 0.0]) + sigma * rng.normal(size=(n, 2))
    feats = np.vstack([blob_a, blob_b])
    (proxies,) = imprint_new_classes([feats], 2, seed=1)
    tol = 3 * sigma / np.sqrt(n)
    found_a = min(np.linalg.norm(p - blob_a.mean(axis=0)) for p in proxies)
    found_b = min(np.linalg.norm(p - blob_b.mean(axis=0)) for p in proxies)
    assert found_a <= tol and found_b <= tol
    # and the greedy result is WCSS-optimal among all 2-partitions
    d2 = ((feats[:, None, :] - proxies[None]) ** 2).sum(axis=2)
    best, _ = kmeans_two_cluster_optima(feats.tolist())
    assert d2.min(axis=1).sum() == pytest.approx(best, abs=1e-9)


def test_imprint_fewer_samples_than_k_duplicates_with_jitter():
    feats = np.array([[1.0, 0.0], [0.0, 1.0]])
    (proxies,) = imprint_new_classes([feats], 5, seed=2)
    assert proxies.shape == (5, 2)
    base = {tuple(np.round(p, 6)) for p in proxies[:2]}
    assert len(base) == 2
    for extra in proxies[2:]:
        nearest = min(np.linalg.norm(extra - b) for b in proxies[:2])
        assert 0 < nearest < 0.01  # jittered duplicate, still distinct


def test_imprint_empty_class_rejected():
    with pytest.raises(ContractError):
        imprint_new_classes([np.zeros((0, 3))], 2, seed=0)


# -- bank bookkeeping ---------------------------------------------------------------------


def test_bank_state_roundtrip(first_task_state):
    ds, sched, cfg, runner, state = first_task_state(eta_init=1.5)
    # the stacked tensor writes the per-class layout: C lists of K x D lists
    assert state["bank"]["theta"] == [t.tolist() for t in runner.bank.theta.data]
    bank = IncrementalRunner.from_state(sched, cfg, ds, state).bank
    assert bank.num_classes == 2
    assert bank.theta.shape == (2, 2, 8) and bank.theta.requires_grad
    assert bank.theta.data.tobytes() == runner.bank.theta.data.tobytes()
    assert float(bank.eta.data) == 3.25
    # the eta floor comes from the config
    assert bank.eta_floor == 1.5


def test_bank_from_state_names_a_missing_field(first_task_state):
    ds, sched, cfg, _, state = first_task_state()
    for name in ("theta", "eta"):
        broken = copy.deepcopy(state)
        del broken["bank"][name]
        with pytest.raises(FormatError) as exc:
            IncrementalRunner.from_state(sched, cfg, ds, broken)
        assert f"runner.bank.{name}" in str(exc.value)


def test_bank_from_state_rejects_malformed_theta(first_task_state):
    ds, sched, cfg, _, state = first_task_state()
    theta = state["bank"]["theta"]  # 2 classes of K=2 proxies of D=8
    for bad in (
        [theta[0], theta[1][:1]],                           # a class one proxy short
        [theta[0], [theta[1][0], theta[1][1][:4]]],         # ragged: one short proxy
        theta[:1],                                          # one class short
        [[row + [0.0] for row in rows] for rows in theta],  # D + 1
        [[["x"] * 8] * 2] * 2,                              # not numbers
    ):
        broken = copy.deepcopy(state)
        broken["bank"]["theta"] = bad
        with pytest.raises(FormatError, match=r"runner\.bank\.theta"):
            IncrementalRunner.from_state(sched, cfg, ds, broken)


def test_bank_grows_one_stacked_parameter():
    bank = ProxyBank(4, 2)
    assert bank.theta.shape == (0, 2, 4)
    bank.add_class(np.ones((2, 4)))
    bank.add_class(2 * np.ones((2, 4)))
    theta, eta = bank.parameters()
    assert theta is bank.theta and eta is bank.eta
    assert theta.requires_grad and theta.shape == (2, 2, 4)
    npt.assert_array_equal(theta.data[1], 2 * np.ones((2, 4)))


def test_bank_validates_construction():
    with pytest.raises(ContractError):
        ProxyBank(0, 1)
    with pytest.raises(ContractError, match="margin must be >= 0, got -0.1"):
        nca_hinge_loss(Tensor([[0.5, 0.1]]), [0], eta=1.0, delta=-0.1)
    with pytest.raises(ContractError):
        ProxyBank(4, 2, eta_init=0.0)
    bank = ProxyBank(4, 2)
    with pytest.raises(ContractError):
        bank.add_class(np.zeros((3, 4)))


def test_bank_eta_floor_clamps():
    bank = ProxyBank(4, 1, eta_init=1.0)
    bank.eta.data = np.asarray(0.2)
    bank.clamp_eta()
    assert float(bank.eta.data) == 1.0
