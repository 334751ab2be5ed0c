"""Quality network: forward, loss, gradients, Adam, augmentation, training."""

import math
import threading

import numpy as np
import pytest

from graspforge import model
from graspforge.depthproc import Patch
from graspforge.errors import DegenerateInput, ShapeMismatch, SingleClass
from graspforge.model import (AdamState, QualityNet, TrainConfig, adam_step,
                              augment, forward_many, gradients,
                              init_net, load_net, loss, save_net, train,
                              write_metrics, _depthwise_forward,
                              _dlogits, _forward_batch, _pool_forward, _sigmoid)
from oracles import (_ref_conv_forward, augment_reference, backward_batch_reference,
                     conv_cores, forward_backward_reference, forward_batch_reference,
                     traced_peak_mib, zeros_net)

# Seeds under which the finite-difference probe point below is smooth: no
# max-pool tie sits within the h-step's reach, verified by full-coordinate
# scans at build time. Kink-free points are required because a central
# difference straddling a ReLU or pool switch measures a chord between two
# smooth branches, not the gradient.
FD_SEEDS = (14, 21, 31, 48, 49, 53, 55, 83, 112, 130)


def quality(net, patch) -> float:
    """Quality of one patch, through `forward_many` on a one-patch list."""
    return float(forward_many(net, [patch])[0])


def rand_patch(rng, size=16):
    return Patch(data=rng.normal(size=(size, size)).astype(np.float32), pitch=0.5)


def smooth_net_and_batch(seed, size=8, n=3):
    """Net and batch where the loss is differentiable within an h-ball.

    Every unit is strictly active (positive weights, biases, inputs) and
    each stage is rescaled to unit RMS so a finite-difference step stays in
    the sigmoid's near-linear range.
    """
    rng = np.random.default_rng(seed)
    net = init_net(size, rng)
    params = [np.abs(p.astype(np.float64)) + (0.1 if p.ndim == 1 else 0.0)
              for p in net.params]
    x = np.abs(rng.normal(size=(n, size, size))) + 0.1
    h = x[:, None, :, :]
    for i in range(3):
        z, _ = _ref_conv_forward(h, params[2 * i], params[2 * i + 1])
        s = float(np.sqrt((z ** 2).mean()))
        params[2 * i] /= s
        params[2 * i + 1] /= s
        h, _ = _pool_forward(z / s)
    z, _ = _depthwise_forward(h, params[6], params[7])
    s = float(np.sqrt((z ** 2).mean()))
    params[6] /= s
    params[7] /= s
    zp = np.einsum("nchw,kc->nkhw", z / s, params[8]) + params[9][None, :, None, None]
    s = float(np.sqrt((zp ** 2).mean()))
    params[8] /= s
    params[9] /= s
    pooled = (zp / s).mean(axis=(2, 3))
    logit = pooled @ params[10] + params[11][0]
    s = max(1.0, float(np.abs(logit).max()))
    params[10] /= s
    params[11] = np.array([(params[11][0] - logit.mean()) / s])
    return QualityNet(size, params), x


def fd_gradient_worst_error(seed, h=1e-3, coords_per_tensor=None):
    """Max relative error of backprop vs central differences."""
    net, x = smooth_net_and_batch(seed)
    y = np.array([1.0, 0.0, 1.0])
    phi = (0.5, 1.5)
    _, grads = gradients(net, (x, y), phi)

    def batch_loss():
        logits, _ = _forward_batch(net, x)
        return loss(_sigmoid(logits), y, phi)

    worst = 0.0
    for pi, p in enumerate(net.params):
        flat = p.reshape(-1)
        if coords_per_tensor is None:
            idxs = range(flat.size)
        else:
            idxs = np.random.default_rng(1000 + pi).choice(
                flat.size, size=min(coords_per_tensor, flat.size), replace=False)
        for j in idxs:
            orig = flat[j]
            flat[j] = orig + h
            lp = batch_loss()
            flat[j] = orig - h
            lm = batch_loss()
            flat[j] = orig
            fd = (lp - lm) / (2 * h)
            bp = grads[pi].reshape(-1)[j]
            denom = max(abs(fd), abs(bp))
            if denom < 1e-8:
                continue
            worst = max(worst, abs(fd - bp) / denom)
    return worst


def blob_dataset(n=200, size=16, seed=0):
    """Linearly separable toy task: bright blobs (label 1) vs dark (0), as
    the (n, size, size) float32 patch block and its labels."""
    rng = np.random.default_rng(seed)
    x = np.empty((n, size, size), dtype=np.float32)
    labels = np.arange(n) % 2
    for i, label in enumerate(labels):
        base = rng.normal(scale=0.3, size=(size, size))
        cy, cx = rng.integers(4, size - 4, size=2)
        yy, xx = np.mgrid[0:size, 0:size]
        bump = np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / 8.0)
        base += 3.0 * bump if label == 1 else -3.0 * bump
        x[i] = base
    return x, labels


class TestQualityNet:
    def test_zero_net_outputs_half(self):
        net = zeros_net(64)
        p = rand_patch(np.random.default_rng(0), 64)
        assert quality(net, p) == 0.5

    def test_forward_deterministic(self):
        rng = np.random.default_rng(3)
        net = init_net(16, rng)
        p = rand_patch(np.random.default_rng(4))
        assert quality(net, p) == quality(net, p)
        net2 = init_net(16, np.random.default_rng(3))
        assert quality(net2, p) == quality(net, p)

    def test_passthrough_closed_form(self):
        # center-tap kernels route a constant input straight through every
        # stage, so the output is sigmoid(w * c + b) exactly
        net = zeros_net(16)
        for pi in (0, 2, 4):
            net.params[pi][0, 0, 1, 1] = 1.0
        net.params[6][0, 1, 1] = 1.0      # depthwise
        net.params[8][0, 0] = 1.0          # pointwise
        net.params[10][0] = 1.3
        net.params[11][0] = -0.2
        c = 0.8
        p = Patch(data=np.full((16, 16), c, dtype=np.float32), pitch=0.5)
        want = 1.0 / (1.0 + math.exp(-(1.3 * c - 0.2)))
        assert quality(net, p) == pytest.approx(want, abs=1e-7)

    def test_bad_sizes_rejected(self, tmp_path):
        # a checkpoint's input size enters through load_net
        path = tmp_path / "net.gfqn"
        for size in (0, 4, 12, 20):
            save_net(QualityNet(size, zeros_net(16).params), path)
            with pytest.raises(DegenerateInput, match="multiple of 8") as err:
                load_net(path)
            assert str(path) in str(err.value)

    def test_param_validation(self, tmp_path):
        # a checkpoint's tensors enter through load_net: one missing, one of
        # the wrong shape, one not finite
        net = zeros_net(16)
        path = tmp_path / "net.gfqn"
        bad = [p.copy() for p in net.params]
        bad[0] = np.zeros((8, 1, 5, 5), dtype=np.float32)
        nan = [p.copy() for p in net.params]
        nan[2][0, 0, 0, 0] = np.nan
        for params, detail in ((net.params[:-1], "ends early"),
                               (bad, "conv1_w: expected"), (nan, "conv2_w contains non-finite")):
            save_net(QualityNet(16, params), path)
            with pytest.raises(DegenerateInput, match=detail) as err:
                load_net(path)
            assert str(path) in str(err.value)
        # the parse itself raises a wrong shape as ShapeMismatch
        save_net(QualityNet(16, bad), path)
        with pytest.raises(ShapeMismatch):
            model._parse_net(path.read_bytes())

    def test_forward_many_matches_single(self):
        rng = np.random.default_rng(7)
        net = init_net(16, rng)
        patches = [rand_patch(rng) for _ in range(5)]
        batch = forward_many(net, patches)
        single = [quality(net, p) for p in patches]
        assert np.allclose(batch, single, atol=1e-12)


class TestLoss:
    def test_uninformative_prediction(self):
        phi = (1.0, 1.0)
        assert loss(0.5, 1, phi) == pytest.approx(math.log(2.0), abs=1e-12)
        assert loss(0.5, 0, phi) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_perfect_prediction_clamped(self):
        phi = (1.0, 1.0)
        v = loss(1.0, 1, phi)
        assert 0.0 < v < 2e-7

    def test_weighted_example(self):
        phi = (1.5, 0.5)
        assert loss(0.1, 1, phi) == pytest.approx(0.5 * -math.log(0.1), abs=1e-9)

    def test_batch_mean(self):
        phi = (1.0, 1.0)
        lone = loss(0.8, 1, phi)
        other = loss(0.3, 0, phi)
        both = loss(np.array([0.8, 0.3]), np.array([1, 0]), phi)
        assert both == pytest.approx((lone + other) / 2, abs=1e-12)

    def test_non_negative_everywhere(self):
        rng = np.random.default_rng(5)
        phi = (0.4, 1.6)
        q = rng.random(100)
        y = rng.integers(0, 2, size=100)
        per = [loss(qi, yi, phi) for qi, yi in zip(q, y)]
        assert min(per) >= 0.0


class TestGradients:
    def test_finite_difference_full_scan(self):
        # 3-sample batch, 8x8 input, h = 1e-3, every coordinate
        assert fd_gradient_worst_error(FD_SEEDS[0]) <= 1e-4

    def test_finite_difference_ten_seeds(self):
        for seed in FD_SEEDS:
            assert fd_gradient_worst_error(seed, coords_per_tensor=8) <= 1e-4

    def test_duplicated_batch_same_gradient(self):
        net, x = smooth_net_and_batch(21, n=1)
        phi = (0.5, 1.5)
        y = np.array([1.0])
        _, g1 = gradients(net, (x, y), phi)
        _, g2 = gradients(net, (np.concatenate([x, x]), np.array([1.0, 1.0])), phi)
        for a, b in zip(g1, g2):
            assert np.allclose(a, b, atol=1e-12)

    def test_zero_weights_zero_gradients(self):
        # an all-zero weighting, which class_weights never returns, shows
        # that the loss scale factors the whole gradient
        net, x = smooth_net_and_batch(31)
        _, g = gradients(net, (x, np.array([1.0, 0.0, 1.0])), (0.0, 0.0))
        assert all(np.all(t == 0.0) for t in g)


def plateau_case(seed, n=None):
    """Seeded net, batch and labels with zero plateaus in the input, so that
    2x2 pooling windows tie and ReLU passes -0.0. Input side cycles through
    8, 16 and 64; batch length is 1 to 40, or n if given."""
    rng = np.random.default_rng(seed)
    size = (8, 16, 64)[seed % 3]
    drawn = int(rng.integers(1, 41))   # drawn even when n is given, so the rest stays put
    n = n or drawn
    net = init_net(size, rng)
    if seed % 2:
        # nonzero biases move the ReLU threshold off the plateaus' exact zero
        for i in (1, 3, 5, 7, 9, 11):
            net.params[i] = rng.normal(0.0, 0.2, net.params[i].shape).astype(np.float32)
    x = rng.normal(size=(n, size, size)).astype(np.float32)
    for img in x:
        for _ in range(3):
            y0, x0 = rng.integers(0, size, size=2)
            hy, hx = rng.integers(2, size // 2 + 2, size=2)
            img[y0:y0 + hy, x0:x0 + hx] = 0.0
    if seed % 5 == 0:
        x = np.maximum(x, 0.0)
    y = rng.integers(0, 2, size=n).astype(np.float64)
    return net, x, y


class TestBitIdentity:
    """The network pass returns the frozen reference's bytes: logits, every
    parameter gradient, and a whole training run's checkpoint."""

    PHI = (0.7, 1.3)

    @pytest.mark.parametrize("seed", range(18))
    def test_logits_and_gradients(self, seed):
        net, x, y = plateau_case(seed)
        phi = self.PHI
        ref_logits, ref_grads = forward_backward_reference(
            net, x, lambda lg: _dlogits(_sigmoid(lg), y, phi))
        logits, _ = _forward_batch(net, x)
        assert logits.tobytes() == ref_logits.tobytes()
        batch_loss, grads = gradients(net, (x, y), phi)
        assert batch_loss == loss(_sigmoid(ref_logits), y, phi)
        assert len(grads) == len(ref_grads) == 12
        for i, (g, r) in enumerate(zip(grads, ref_grads)):
            assert g.dtype == r.dtype and g.shape == r.shape, i
            assert g.tobytes() == r.tobytes(), i

    def test_plateaus_tie_and_pass_negative_zero(self):
        # the cases above reach the corners the identity is meant to cover
        ties = negzero = 0
        for seed in range(18):
            net, x, _ = plateau_case(seed)
            p = [a.astype(np.float64) for a in net.params]
            h = x.astype(np.float64)[:, None]
            for i in range(3):
                z, _ = _ref_conv_forward(h, p[2 * i], p[2 * i + 1])
                act = z * (z > 0)
                negzero += int(np.sum((act == 0.0) & np.signbit(act)))
                ties += int(np.sum(act[:, :, 0::2, 0::2] == act[:, :, 0::2, 1::2]))
                h, _ = _pool_forward(act)
        assert ties > 0 and negzero > 0

    @pytest.mark.parametrize("seed", range(3))
    def test_relu_gate_from_pooled_output(self, seed):
        # dyadic weights, biases and piecewise-constant integer patches make
        # every conv sum exact, so the conv outputs hold negatives (-0.0
        # after the ReLU), exact +0.0, and pool quadrants tied between equal
        # positives and between -0.0 and +0.0; the weights are small enough
        # that no prediction saturates, so every conv gradient is live. The
        # backward pass, which gates each stage by its pooled output, still
        # returns the reference's bytes on 1 and 2 cores
        rng = np.random.default_rng(seed)
        size, n = 16, 9
        shapes = [p.shape for p in init_net(size, rng).params]
        net = QualityNet(size, [rng.choice([-0.5, -0.25, 0.0, 0.25, 0.5], size=s)
                                .astype(np.float32) for s in shapes])
        x = np.zeros((n, size, size), np.float32)
        for img in x:
            for _ in range(6):
                y0, x0 = rng.integers(0, size, size=2)
                hy, hx = rng.integers(2, size // 2 + 2, size=2)
                img[y0:y0 + hy, x0:x0 + hx] = rng.integers(-2, 3)
        y = (np.arange(n) % 2).astype(np.float64)
        p = [a.astype(np.float64) for a in net.params]
        h = x.astype(np.float64)[:, None]
        neg = poszero = postie = zerotie = 0
        for i in range(3):
            z, _ = _ref_conv_forward(h, p[2 * i], p[2 * i + 1])
            act = z * (z > 0)
            neg += int(np.sum(z < 0))
            poszero += int(np.sum((z == 0) & ~np.signbit(act)))
            a, b = act[:, :, 0::2, 0::2], act[:, :, 0::2, 1::2]
            postie += int(np.sum((a == b) & (a > 0)))
            zerotie += int(np.sum((a == 0) & (b == 0) & (np.signbit(a) != np.signbit(b))))
            h, _ = _pool_forward(act)
        assert min(neg, poszero, postie, zerotie) > 0
        ref_logits, ref_grads = forward_backward_reference(
            net, x, lambda lg: _dlogits(_sigmoid(lg), y, self.PHI))
        assert all(np.any(g != 0) for g in ref_grads[:6])
        for k in (1, 2):
            with conv_cores(k):
                _, grads = gradients(net, (x, y), self.PHI)
                logits, _ = _forward_batch(net, x)
            assert logits.tobytes() == ref_logits.tobytes(), k
            for i, (g, r) in enumerate(zip(grads, ref_grads)):
                assert g.tobytes() == r.tobytes(), (k, i)

    def test_training_checkpoint(self, tmp_path, monkeypatch):
        data = blob_dataset(n=60, size=16, seed=9)
        cfg = TrainConfig(epochs=3, batch_size=8, seed=4)
        ours = train(*data, cfg)
        monkeypatch.setattr(model, "_forward_batch",
                            lambda net, x, ws: forward_batch_reference(net, x))
        monkeypatch.setattr(model, "_backward_batch", backward_batch_reference)
        ref = train(*data, cfg)
        save_net(ours.net, tmp_path / "ours.gfqn")
        save_net(ref.net, tmp_path / "ref.gfqn")
        assert (tmp_path / "ours.gfqn").read_bytes() == (tmp_path / "ref.gfqn").read_bytes()
        assert ours.history == ref.history


class TestSpans:
    """The conv stages' per-sample spans: the bytes do not depend on how the
    batch is split, and a failing span fails the call."""

    PHI = (0.7, 1.3)

    @pytest.mark.parametrize("n", [1, 3, 4, 5, 9, 31, 33])
    def test_bytes_independent_of_core_count(self, n):
        # plateau_case(2) is a 64x64 net
        net, x, y = plateau_case(2, n=n)
        phi = self.PHI
        ref_logits, ref_grads = forward_backward_reference(
            net, x, lambda lg: _dlogits(_sigmoid(lg), y, phi))
        for k in (1, 2, 3):
            with conv_cores(k):
                assert len(model._spans(n)) == min(k, -(-n // model._CHUNK))
                logits, _ = _forward_batch(net, x)
                _, grads = gradients(net, (x, y), phi)
            assert logits.tobytes() == ref_logits.tobytes(), k
            assert len(grads) == 12
            for i, (g, r) in enumerate(zip(grads, ref_grads)):
                assert g.tobytes() == r.tobytes(), (k, i)

    def test_training_run_independent_of_core_count(self, tmp_path):
        data = blob_dataset(n=60, size=16, seed=9)
        cfg = TrainConfig(epochs=3, batch_size=10, seed=4)
        runs = []
        for k in (1, 2):
            with conv_cores(k):
                runs.append(train(*data, cfg))
            save_net(runs[-1].net, tmp_path / f"k{k}.gfqn")
        assert (tmp_path / "k1.gfqn").read_bytes() == (tmp_path / "k2.gfqn").read_bytes()
        assert runs[0].history == runs[1].history

    def test_worker_error_reaches_caller(self, monkeypatch):
        net, x, y = plateau_case(2, n=8)
        conv_forward = model._conv_forward

        def fail_off_caller(*args):
            if threading.current_thread() is not threading.main_thread():
                raise RuntimeError("span failed")
            return conv_forward(*args)

        with conv_cores(2):
            monkeypatch.setattr(model, "_conv_forward", fail_off_caller)
            with pytest.raises(RuntimeError, match="span failed"):
                _forward_batch(net, x)
            monkeypatch.setattr(model, "_conv_forward", conv_forward)
            logits, _ = _forward_batch(net, x)
        ref_logits, _ = forward_backward_reference(net, x, lambda lg: lg)
        assert logits.tobytes() == ref_logits.tobytes()


def test_gradients_peak_memory():
    # one training-size batch: 32 patches of 64x64 on 2 cores; about 14 MiB
    # since each stage's ReLU gate comes from its pooled output and conv1
    # reads the patches, 18 MiB with one workspace per call, 23 MiB when
    # each chunk allocated its temporaries, 57 MiB when the forward kept its
    # im2col copies, 125 MiB when conv1's input gradient was formed
    rng = np.random.default_rng(0)
    net = init_net(64, rng)
    x = rng.normal(size=(32, 64, 64)).astype(np.float32)
    y = (np.arange(32) % 2).astype(np.float64)
    peak = traced_peak_mib(lambda: gradients(net, (x, y), (1.0, 1.0)), 2)
    assert peak < 20.0, peak


def test_validation_forward_peak_memory():
    # one validation chunk: 256 patches of 64x64 on 2 cores; about 46 MiB
    # since the workspace keeps no ReLU masks and no float64 copy of the
    # patches, 66 MiB with them and the buffers only a backward pass
    # touches, 54 MiB before those, and 324 MiB when the forward kept every
    # stage's im2col copy
    rng = np.random.default_rng(0)
    net = init_net(64, rng)
    x = rng.normal(size=(256, 64, 64)).astype(np.float32)
    peak = traced_peak_mib(lambda: _forward_batch(net, x), 2)
    assert peak < 55.0, peak


def test_train_peak_memory():
    # the `train` benchmark workload's size: 160 patches of 64x64, 3 epochs
    # on 2 cores; about 15 MiB since the workspace keeps no ReLU masks and no
    # float64 copy of the patches, 18 MiB since `train` takes the loader's
    # patch block instead of stacking its own copy, 21 MiB before, and 34
    # MiB when each step allocated its arrays and the flipped training block
    # was formed
    rng = np.random.default_rng(0)
    labels = np.zeros(160, dtype=int)
    labels[rng.choice(160, size=32, replace=False)] = 1
    x = rng.normal(0.0, 3.0, (160, 64, 64)).astype(np.float32)
    peak = traced_peak_mib(lambda: train(x, labels, TrainConfig(epochs=3, seed=0)), 2)
    assert peak < 20.0, peak


@pytest.mark.parametrize("side", [64, 32, 16])
def test_bias_partials_sum_like_whole_batch(side):
    # a conv bias gradient sums per-sample partials, each chunk's written by
    # its span, over the batch; numpy must give the bytes of the whole-batch
    # sum over the sample and both map axes
    rng = np.random.default_rng(side)
    for n in range(1, 34):
        dz = rng.normal(size=(n, 8, side, side)) * (rng.random((n, 8, side, side)) < 0.3)
        partials = np.empty((n, 8))
        for a in range(0, n, model._CHUNK):
            b = min(a + model._CHUNK, n)
            np.sum(dz[a:b].reshape(b - a, 8, -1), axis=2, out=partials[a:b])
        assert partials.sum(axis=0).tobytes() == dz.sum(axis=(0, 2, 3)).tobytes(), n


class TestAdam:
    def test_quadratic_convergence(self):
        cfg = TrainConfig(lr=0.1)
        state = AdamState(params=[np.array([0.0], dtype=np.float32)])
        for _ in range(500):
            g = 2.0 * (float(state.params[0][0]) - 3.0)
            state = adam_step(state, [np.array([g])], cfg)
        assert abs(float(state.params[0][0]) - 3.0) < 1e-3

    def test_zero_gradient_fresh_state(self):
        state = AdamState(params=[np.array([1.5], dtype=np.float32)])
        state = adam_step(state, [np.zeros(1)], TrainConfig())
        assert float(state.params[0][0]) == 1.5
        assert float(state.m[0][0]) == 0.0 and float(state.v[0][0]) == 0.0

    def test_zero_gradient_decays_moments(self):
        state = AdamState(params=[np.array([1.0], dtype=np.float32)])
        state = adam_step(state, [np.array([4.0])], TrainConfig())
        m1, v1 = float(state.m[0][0]), float(state.v[0][0])
        state = adam_step(state, [np.zeros(1)], TrainConfig())
        assert float(state.m[0][0]) == pytest.approx(0.9 * m1, rel=1e-6)
        assert float(state.v[0][0]) == pytest.approx(0.999 * v1, rel=1e-6)

    def test_first_step_magnitude_is_lr(self):
        for scale in (1e-4, 1.0, 1e4):
            state = AdamState(params=[np.array([0.0], dtype=np.float32)])
            state = adam_step(state, [np.array([scale])], TrainConfig(lr=1e-3))
            assert abs(float(state.params[0][0])) == pytest.approx(1e-3, rel=0.01)


def flip_block(x):
    """All 4N rows of the flip block of the (N, S, S) patches x."""
    return augment(x, np.arange(4 * len(x)))


class TestAugment:
    def test_matches_per_sample_reference(self):
        # the flipped block holds the per-sample flips' bytes in their order:
        # sample by sample, the original, columns reversed, rows reversed, both
        rng = np.random.default_rng(8)
        patches = [rand_patch(rng) for _ in range(5)]
        patches.append(Patch(data=np.ones((16, 16), dtype=np.float32), pitch=0.5))
        samples = [(p, i % 2) for i, p in enumerate(patches)]
        ref = [v for s in samples for v in augment_reference(s)]
        block = flip_block(np.stack([p.data for p in patches]))
        assert block.dtype == np.float32 and block.flags.c_contiguous
        assert block.tobytes() == np.stack([p.data for p, _ in ref]).tobytes()
        labels = np.array([label for _, label in samples], dtype=np.float64)
        assert np.repeat(labels, 4).tolist() == [label for _, label in ref]

    def test_rows_match_reference(self):
        # as training draws them: shuffled batches of rows, the last one
        # short, and rows that repeat
        rng = np.random.default_rng(3)
        patches = [rand_patch(rng) for _ in range(7)]
        x = np.stack([p.data for p in patches])
        ref = [v.data for p in patches for v, _ in augment_reference((p, 0))]
        order = rng.permutation(4 * len(x))
        draws = [order[a:a + 8] for a in range(0, len(order), 8)]
        draws.append(rng.integers(0, 4 * len(x), size=20))
        assert len(draws[-2]) == 4
        for rows in draws:
            got = augment(x, rows)
            assert got.dtype == np.float32 and got.flags.c_contiguous
            assert got.tobytes() == np.stack([ref[r] for r in rows]).tobytes()

    def test_four_distinct_variants(self):
        x = rand_patch(np.random.default_rng(8)).data[None]
        out = flip_block(x)
        assert out.shape == (4, 16, 16)
        assert out[0].tobytes() == x[0].tobytes()
        assert len({v.tobytes() for v in out}) == 4

    def test_double_flip_restores_original(self):
        x = rand_patch(np.random.default_rng(9)).data[None]
        hflip = augment(x, [1])
        assert augment(hflip, [1])[0].tobytes() == x[0].tobytes()

    def test_symmetric_patch_collapses(self):
        out = flip_block(np.ones((1, 16, 16), dtype=np.float32))
        assert len({v.tobytes() for v in out}) == 1


@pytest.fixture(scope="module")
def blob_run():
    data = blob_dataset()
    cfg = TrainConfig(epochs=20, batch_size=32, seed=0)
    return data, cfg, train(*data, cfg)


class TestTrain:
    def test_separable_task_validation_accuracy(self, blob_run):
        _, _, result = blob_run
        assert result.best_val_acc >= 0.98
        assert len(result.history) == 20
        assert 1 <= result.best_epoch <= 20

    def test_history_fields(self, blob_run):
        _, _, result = blob_run
        row = result.history[0]
        assert set(row) == {"epoch", "train_loss", "val_acc", "val_prec",
                            "val_rec"}
        assert [r["epoch"] for r in result.history] == list(range(1, 21))

    def test_flip_consistency_after_augmented_training(self, blob_run):
        (x, _), _, result = blob_run
        agree = 0
        for img in x[:40]:
            q = quality(result.net, Patch(data=img, pitch=0.5))
            hflip = Patch(data=augment(img[None], [1])[0], pitch=0.5)
            qh = quality(result.net, hflip)
            agree += abs(q - qh) <= 0.15
        assert agree >= 36   # within 0.15 on at least 90%

    def test_zero_learning_rate_changes_nothing(self):
        data = blob_dataset(n=60, seed=3)
        result = train(*data, TrainConfig(epochs=3, lr=0.0, seed=1))
        accs = [r["val_acc"] for r in result.history]
        assert accs.count(accs[0]) == 3
        losses = [r["train_loss"] for r in result.history]
        assert np.allclose(losses, losses[0], rtol=1e-9)

    def test_same_seed_same_run(self):
        data = blob_dataset(n=60, seed=4)
        cfg = TrainConfig(epochs=3, seed=7)
        a = train(*data, cfg)
        b = train(*data, cfg)
        assert a.history == b.history
        assert all(np.array_equal(p, q) for p, q in zip(a.net.params,
                                                        b.net.params))

    def test_single_class_rejected(self):
        rng = np.random.default_rng(11)
        x = np.stack([rand_patch(rng).data for _ in range(20)])
        with pytest.raises(SingleClass):
            train(x, np.zeros(20, dtype=int), TrainConfig(epochs=1))

    def test_each_batch_is_one_gradients_call(self, monkeypatch):
        # training steps through `gradients`, the pass the finite-difference
        # and bit-identity tests check: 30 of each class, 6 held out, 4
        # flips of the other 48 make 192 rows, 19 batches of 10 and one of 2
        sizes = []
        step = model.gradients

        def counted(net, batch, phi, ws):
            sizes.append(len(batch[0]))
            return step(net, batch, phi, ws)

        monkeypatch.setattr(model, "gradients", counted)
        train(*blob_dataset(n=60, seed=5), TrainConfig(epochs=2, batch_size=10, seed=2))
        assert sizes == ([10] * 19 + [2]) * 2

    def test_empty_or_non_binary_labels_rejected(self):
        x, labels = blob_dataset(n=20, seed=6)
        with pytest.raises(DegenerateInput, match="empty"):
            train(x[:0], labels[:0], TrainConfig(epochs=1))
        with pytest.raises(DegenerateInput, match="0 or 1"):
            train(x, np.where(labels == 1, 2, 0), TrainConfig(epochs=1))

    def test_config_validation(self):
        with pytest.raises(DegenerateInput):
            TrainConfig(lr=-1e-3)
        with pytest.raises(DegenerateInput):
            TrainConfig(val_fraction=0.0)
        with pytest.raises(DegenerateInput):
            TrainConfig(epochs=0)


class TestCheckpoint:
    def test_roundtrip_bit_identical(self, tmp_path, blob_run):
        (x, _), _, result = blob_run
        path = tmp_path / "net.gfqn"
        save_net(result.net, path)
        loaded = load_net(path)
        assert loaded.size == result.net.size
        for a, b in zip(result.net.params, loaded.params):
            assert a.tobytes() == b.tobytes()
        p = Patch(data=x[0], pitch=0.5)
        assert quality(loaded, p) == quality(result.net, p)

    def test_header_layout(self, tmp_path):
        net = zeros_net(16)
        path = tmp_path / "z.gfqn"
        save_net(net, path)
        raw = path.read_bytes()
        assert raw[:4] == b"GFQN"
        assert int.from_bytes(raw[4:8], "little") == 1
        assert int.from_bytes(raw[8:12], "little") == 16

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.gfqn"
        path.write_bytes(b"NOPE" + bytes(64))
        with pytest.raises(DegenerateInput):
            load_net(path)

    def test_metrics_csv(self, tmp_path, blob_run):
        _, _, result = blob_run
        path = tmp_path / "log.csv"
        write_metrics(result.history, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,train_loss,val_acc,val_prec,val_rec"
        assert len(lines) == 21
