import struct

import numpy as np
import pytest

from atrosim.cli import EXIT_RUNTIME, cli

from atrosim.errors import (
    BadMagic,
    InvalidSpec,
    IoFailure,
    ShapeMismatch,
    TruncatedPayload,
    UnsupportedVersion,
)
from atrosim.fieldio import write_field
from atrosim.fields import GM, LabelField, ScalarField
from atrosim.network import (
    DEFAULT_CHANNELS,
    IN_CHANNELS,
    NetWeights,
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    _conv_backward,
    _conv_forward,
    _leaky_backward,
    _leaky_forward,
    _padded,
    _pool_backward,
    _pool_forward,
    _upsample_backward,
    _upsample_forward,
    backward_batch,
    forward_batch,
    init_weights,
    input_planes,
    layer_shapes,
    load_checkpoint,
    net_forward,
    save_checkpoint,
)
from atrosim.phantom import AtrophySpec, PhantomSpec, make_atrophy, make_phantom


class TestLayerShapes:
    def test_default_architecture(self):
        shapes = layer_shapes(6, (16, 32, 64))
        assert shapes == [
            (16, 6, 3, 3), (32, 16, 3, 3), (64, 32, 3, 3),   # encoder
            (32, 64 + 32, 3, 3), (16, 32 + 16, 3, 3),        # decoder + skips
            (2, 16, 1, 1),                                   # head
        ]


class TestInitWeights:
    def test_deterministic(self):
        w1 = init_weights(0)
        w2 = init_weights(0)
        for k1, k2 in zip(w1.kernels, w2.kernels):
            assert np.array_equal(k1, k2)

    def test_final_layer_zero(self):
        w = init_weights(0)
        assert np.all(w.kernels[-1] == 0.0)
        assert all(np.all(b == 0.0) for b in w.biases)

    def test_untrained_net_predicts_zero(self):
        labels, _ = make_phantom(PhantomSpec(size=32, seed=0))
        a = make_atrophy(AtrophySpec(seed=1), labels)
        u = net_forward(init_weights(3), a, labels)
        assert np.all(u.ux == 0.0)
        assert np.all(u.uy == 0.0)

    def test_shape_validation(self):
        w = init_weights(0)
        with pytest.raises(ShapeMismatch):
            NetWeights(channels=w.channels, in_channels=w.in_channels,
                       kernels=w.kernels[:-1], biases=w.biases)


class TestConvLayer:
    # The layer primitives work on channels-last (B, H, W, C) arrays; a 3x3
    # conv reads a zero-bordered (B, H+2, W+2, C) buffer. A conv with more
    # input than output channels runs as shifted GEMMs over that buffer, whose
    # row ranges cross the row and batch seams, so those cases use B=2 and a
    # non-square grid (a swapped row stride only shows there).
    # (batch, height, width, in, out, kernel size) with in > out
    MORE_INPUTS = [(2, 5, 7, 5, 3, 3), (2, 5, 7, 5, 3, 1)]

    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        for h, w, in_c, out_c in ((4, 4, 3, 3), (4, 6, 5, 3)):
            x = rng.normal(size=(2, h, w, in_c))
            kernel = np.zeros((out_c, in_c, 3, 3))
            for c in range(out_c):
                kernel[c, c, 1, 1] = 1.0
            y, _ = _conv_forward(_padded(x, 1), kernel, np.zeros(out_c))
            assert np.allclose(y, x[..., :out_c])

    def test_matches_direct_loop(self):
        rng = np.random.default_rng(1)
        for b, h, w, in_c, out_c, k in [(1, 5, 5, 2, 3, 3)] + self.MORE_INPUTS:
            p = k // 2
            x = rng.normal(size=(b, h, w, in_c))
            kernel = rng.normal(size=(out_c, in_c, k, k))
            bias = rng.normal(size=out_c)
            y, _ = _conv_forward(_padded(x, p), kernel, bias)
            assert y.shape == (b, h, w, out_c)
            xp = np.zeros((b, in_c, h + 2 * p, w + 2 * p))
            xp[:, :, p:p + h, p:p + w] = x.transpose(0, 3, 1, 2)
            for n in range(b):
                for oc in range(out_c):
                    for yy in range(h):
                        for xx in range(w):
                            ref = bias[oc] + np.sum(
                                kernel[oc] * xp[n, :, yy:yy + k, xx:xx + k])
                            assert np.isclose(y[n, yy, xx, oc], ref)

    def test_backward_matches_finite_difference(self):
        rng = np.random.default_rng(2)
        for b, h, w, in_c, out_c, k in [(1, 4, 4, 2, 3, 3)] + self.MORE_INPUTS:
            p = k // 2
            x = rng.normal(size=(b, h, w, in_c))
            kernel = rng.normal(size=(out_c, in_c, k, k))
            bias = rng.normal(size=out_c)
            dy = rng.normal(size=(b, h, w, out_c))
            y, saved = _conv_forward(_padded(x, p), kernel, bias)
            dx, dk, db = _conv_backward(dy, saved, kernel)
            step = 1e-6
            for arr, grad in ((x, dx), (kernel, dk), (bias, db)):
                assert grad.shape == arr.shape
                flat = arr.reshape(-1)
                for idx in rng.choice(flat.size, size=min(6, flat.size),
                                      replace=False):
                    orig = flat[idx]
                    flat[idx] = orig + step
                    hi = float(np.sum(_conv_forward(_padded(x, p), kernel, bias)[0] * dy))
                    flat[idx] = orig - step
                    lo = float(np.sum(_conv_forward(_padded(x, p), kernel, bias)[0] * dy))
                    flat[idx] = orig
                    assert np.isclose(grad.reshape(-1)[idx],
                                      (hi - lo) / (2 * step), atol=1e-5)


class TestLeaky:
    def test_forward_and_backward_match_where(self):
        rng = np.random.default_rng(8)
        pre = rng.normal(size=(2, 4, 4, 3))
        pre[0, 0, 0] = 0.0
        dy = rng.normal(size=pre.shape)
        post = _leaky_forward(pre.copy())
        assert np.array_equal(post, np.where(pre > 0, pre, 0.2 * pre))
        assert np.array_equal(_leaky_backward(post, dy.copy()),
                              np.where(pre > 0, dy, 0.2 * dy))


class TestPoolAndUpsample:
    def test_pool_averages(self):
        x = np.arange(16.0).reshape(1, 4, 4, 1)
        y = np.empty((1, 2, 2, 1))
        _pool_forward(x, y)
        assert np.isclose(y[0, 0, 0, 0], (0 + 1 + 4 + 5) / 4.0)

    def test_upsample_repeats(self):
        x = np.array([[[[1.0], [2.0]], [[3.0], [4.0]]]])
        y = np.empty((1, 4, 4, 1))
        _upsample_forward(x, y)
        assert np.array_equal(y[0, :, :, 0], [[1, 1, 2, 2], [1, 1, 2, 2],
                                              [3, 3, 4, 4], [3, 3, 4, 4]])

    def test_adjoint_identities(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 8, 8, 3))
        z = rng.normal(size=(2, 4, 4, 3))
        pooled = np.empty_like(z)
        _pool_forward(x, pooled)
        upsampled = np.empty_like(x)
        _upsample_forward(z, upsampled)
        assert np.isclose(np.vdot(pooled, z),
                          np.vdot(x, _pool_backward(z)))
        assert np.isclose(np.vdot(upsampled, x),
                          np.vdot(z, _upsample_backward(x)))


class TestInputPlanes:
    def test_one_hot_and_atrophy(self):
        labels, _ = make_phantom(PhantomSpec(size=32, seed=0))
        a = make_atrophy(AtrophySpec(seed=1), labels)
        planes = input_planes(a, labels)
        assert planes.shape == (IN_CHANNELS, 32, 32)
        assert np.array_equal(planes[0], a.values)
        assert np.allclose(planes[1:].sum(axis=0), 1.0)  # one-hot partition
        assert np.array_equal(planes[1 + GM] == 1.0, labels.labels == GM)


class TestForwardBackward:
    def test_forward_shape_and_determinism(self):
        labels, _ = make_phantom(PhantomSpec(size=32, seed=0))
        a = make_atrophy(AtrophySpec(seed=1), labels)
        w = init_weights(0)
        w.kernels[-1] = np.random.default_rng(9).normal(0, 0.01,
                                                        w.kernels[-1].shape)
        u1 = net_forward(w, a, labels)
        u2 = net_forward(w, a, labels)
        assert u1.shape == (32, 32)
        assert np.array_equal(u1.ux, u2.ux)

    def test_grid_not_divisible_rejected(self):
        w = init_weights(0)
        x = np.zeros((1, IN_CHANNELS, 34, 34))
        with pytest.raises(ShapeMismatch):
            forward_batch(w, x)

    def test_weight_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(4)
        w = init_weights(1, channels=(4, 8))
        w.kernels[-1] = rng.normal(0, 0.05, w.kernels[-1].shape)
        x = rng.normal(size=(2, IN_CHANNELS, 8, 8))
        target = rng.normal(size=(2, 2, 8, 8))

        def scalar_loss():
            y, _ = forward_batch(w, x)
            return 0.5 * float(np.sum((y - target) ** 2))

        y, cache = forward_batch(w, x)
        dks, dbs = backward_batch(w, cache, y - target)
        step = 1e-6
        for blocks, grads in ((w.kernels, dks), (w.biases, dbs)):
            for block, grad in zip(blocks, grads):
                flat = block.reshape(-1)
                for idx in rng.choice(flat.size, size=min(3, flat.size),
                                      replace=False):
                    orig = flat[idx]
                    flat[idx] = orig + step
                    hi = scalar_loss()
                    flat[idx] = orig - step
                    lo = scalar_loss()
                    flat[idx] = orig
                    assert np.isclose(grad.reshape(-1)[idx],
                                      (hi - lo) / (2 * step), atol=1e-5)


# ---------------------------------------------------------------------------
# Plain per-pixel-loop reference of the encoder-decoder on (B, C, H, W)
# arrays. It shares no code with atrosim.network: the conv input gradient is a
# scatter of each output pixel's kernel, not a flipped-kernel convolution.
# ---------------------------------------------------------------------------

def _ref_conv(x, kernel, bias):
    b, c, h, w = x.shape
    out_c, _, k, _ = kernel.shape
    p = k // 2
    xp = np.zeros((b, c, h + 2 * p, w + 2 * p))
    xp[:, :, p:p + h, p:p + w] = x
    y = np.empty((b, out_c, h, w))
    for n in range(b):
        for i in range(h):
            for j in range(w):
                patch = xp[n, :, i:i + k, j:j + k]
                for o in range(out_c):
                    y[n, o, i, j] = bias[o] + np.sum(kernel[o] * patch)
    return y


def _ref_conv_backward(x, kernel, dy):
    b, c, h, w = x.shape
    out_c, _, k, _ = kernel.shape
    p = k // 2
    xp = np.zeros((b, c, h + 2 * p, w + 2 * p))
    xp[:, :, p:p + h, p:p + w] = x
    dxp = np.zeros_like(xp)
    dk = np.zeros_like(kernel)
    for n in range(b):
        for i in range(h):
            for j in range(w):
                for o in range(out_c):
                    g = dy[n, o, i, j]
                    dk[o] += g * xp[n, :, i:i + k, j:j + k]
                    dxp[n, :, i:i + k, j:j + k] += g * kernel[o]
    return dxp[:, :, p:p + h, p:p + w], dk, dy.sum(axis=(0, 2, 3))


def _ref_leaky_slope(pre):
    return np.where(pre > 0, 1.0, 0.2)


def _ref_pool(x):
    b, c, h, w = x.shape
    y = np.empty((b, c, h // 2, w // 2))
    for i in range(h // 2):
        for j in range(w // 2):
            y[:, :, i, j] = x[:, :, 2 * i:2 * i + 2, 2 * j:2 * j + 2].mean(axis=(2, 3))
    return y


def _ref_pool_backward(dy):
    b, c, h, w = dy.shape
    dx = np.empty((b, c, 2 * h, 2 * w))
    for i in range(2 * h):
        for j in range(2 * w):
            dx[:, :, i, j] = dy[:, :, i // 2, j // 2] / 4.0
    return dx


def _ref_upsample(x):
    b, c, h, w = x.shape
    y = np.empty((b, c, 2 * h, 2 * w))
    for i in range(2 * h):
        for j in range(2 * w):
            y[:, :, i, j] = x[:, :, i // 2, j // 2]
    return y


def _ref_upsample_backward(dy):
    b, c, h, w = dy.shape
    dx = np.zeros((b, c, h // 2, w // 2))
    for i in range(h):
        for j in range(w):
            dx[:, :, i // 2, j // 2] += dy[:, :, i, j]
    return dx


def _ref_network(kernels, biases, channels, x, dy):
    """Output and per-layer (dkernel, dbias) of the encoder-decoder."""
    levels = len(channels)
    inputs, pres, skips = [], [], []
    layer = 0
    h = x
    for lvl in range(levels):
        if lvl:
            h = _ref_pool(h)
        pre = _ref_conv(h, kernels[layer], biases[layer])
        inputs.append(h)
        pres.append(pre)
        h = pre * _ref_leaky_slope(pre)
        skips.append(h)
        layer += 1
    for lvl in range(levels - 2, -1, -1):
        h = np.concatenate([_ref_upsample(h), skips[lvl]], axis=1)
        pre = _ref_conv(h, kernels[layer], biases[layer])
        inputs.append(h)
        pres.append(pre)
        h = pre * _ref_leaky_slope(pre)
        layer += 1
    y = _ref_conv(h, kernels[layer], biases[layer])
    inputs.append(h)

    grads = [None] * len(kernels)
    g, dk, db = _ref_conv_backward(inputs[layer], kernels[layer], dy)
    grads[layer] = (dk, db)
    dskips = {}
    for lvl in range(levels - 1):
        layer -= 1
        g = g * _ref_leaky_slope(pres[layer])
        g, dk, db = _ref_conv_backward(inputs[layer], kernels[layer], g)
        grads[layer] = (dk, db)
        dskips[lvl] = g[:, channels[lvl + 1]:]
        g = _ref_upsample_backward(g[:, :channels[lvl + 1]])
    for lvl in range(levels - 1, -1, -1):
        layer -= 1
        if lvl < levels - 1:
            g = g + dskips[lvl]
        g = g * _ref_leaky_slope(pres[layer])
        g, dk, db = _ref_conv_backward(inputs[layer], kernels[layer], g)
        grads[layer] = (dk, db)
        if lvl:
            g = _ref_pool_backward(g)
    return y, grads


class TestWholeNetworkReference:
    def test_forward_and_weight_gradients_match_loop_reference(self):
        rng = np.random.default_rng(11)

        def assert_rel_close(got, ref):
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

        # the non-square grid catches a swapped row stride in the shifted GEMMs
        for batch, height, width in ((2, 8, 8), (3, 8, 16)):
            w = init_weights(2, channels=(4, 8, 16))
            for k, b in zip(w.kernels, w.biases):
                k += rng.normal(0.0, 0.1, k.shape)
                b += rng.normal(0.0, 0.1, b.shape)
            x = rng.normal(size=(batch, IN_CHANNELS, height, width))
            dy = rng.normal(size=(batch, 2, height, width))
            y_ref, grads_ref = _ref_network(w.kernels, w.biases, w.channels, x, dy)

            y, cache = forward_batch(w, x)
            dks, dbs = backward_batch(w, cache, dy)

            assert_rel_close(y, y_ref)
            for dk, db, (dk_ref, db_ref) in zip(dks, dbs, grads_ref):
                assert_rel_close(dk, dk_ref)
                assert_rel_close(db, db_ref)


class TestZeroHeadBiasGradient:
    def test_final_bias_gradient_is_upstream_channel_sum(self):
        # with a zero final layer, only the head's bias gradient is direct:
        # dL/db_c = sum over pixels of upstream channel c
        from atrosim.network import net_backward
        from atrosim.fields import DisplacementField
        labels, _ = make_phantom(PhantomSpec(size=32, seed=0))
        a = make_atrophy(AtrophySpec(seed=1), labels)
        w = init_weights(0)
        rng = np.random.default_rng(6)
        upstream = DisplacementField(rng.normal(size=(32, 32)),
                                     rng.normal(size=(32, 32)))
        _, dbs = net_backward(w, a, labels, upstream)
        assert np.allclose(dbs[-1], [upstream.ux.sum(), upstream.uy.sum()])

    def test_zero_upstream_gives_zero_gradients(self):
        from atrosim.network import net_backward
        from atrosim.fields import DisplacementField
        labels, _ = make_phantom(PhantomSpec(size=32, seed=0))
        a = make_atrophy(AtrophySpec(seed=1), labels)
        w = init_weights(0)
        w.kernels[-1] = np.random.default_rng(7).normal(
            0, 0.01, w.kernels[-1].shape)
        dks, dbs = net_backward(w, a, labels,
                                DisplacementField.zeros(32, 32))
        assert all(np.all(dk == 0.0) for dk in dks)
        assert all(np.all(db == 0.0) for db in dbs)


class TestCheckpointIo:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        w = init_weights(7)
        w.kernels[-1] = rng.normal(size=w.kernels[-1].shape)
        path = tmp_path / "net.nawt"
        save_checkpoint(path, w)
        w2 = load_checkpoint(path)
        assert w2.channels == w.channels
        assert w2.in_channels == w.in_channels
        for k1, k2 in zip(w.kernels, w2.kernels):
            assert np.array_equal(k1, k2)
        for b1, b2 in zip(w.biases, w2.biases):
            assert np.array_equal(b1, b2)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.nawt"
        path.write_bytes(b"XXXX" + b"\x00" * 32)
        with pytest.raises(BadMagic):
            load_checkpoint(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "v9.nawt"
        save_checkpoint(path, init_weights(0))
        raw = bytearray(path.read_bytes())
        raw[4] = 9
        path.write_bytes(bytes(raw))
        with pytest.raises(UnsupportedVersion):
            load_checkpoint(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short.nawt"
        save_checkpoint(path, init_weights(0))
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) // 2])
        with pytest.raises(TruncatedPayload):
            load_checkpoint(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "long.nawt"
        save_checkpoint(path, init_weights(0))
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(TruncatedPayload):
            load_checkpoint(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoFailure):
            load_checkpoint(tmp_path / "absent.nawt")


def _write_raw_checkpoint(path, channels, in_channels):
    """A well-formed NAWT file for any descriptor, zero-filled parameters."""
    count = sum(int(np.prod(shape)) + shape[0]
                for shape in layer_shapes(in_channels, channels))
    path.write_bytes(CHECKPOINT_MAGIC
                     + struct.pack("<II", CHECKPOINT_VERSION, len(channels))
                     + struct.pack(f"<{len(channels)}I", *channels)
                     + struct.pack("<I", in_channels)
                     + np.zeros(count, dtype="<f8").tobytes())


class TestMalformedCheckpoints:
    CASES = [((), IN_CHANNELS, InvalidSpec),
             (DEFAULT_CHANNELS, 3, ShapeMismatch)]

    @pytest.mark.parametrize("channels,in_channels,error", CASES)
    def test_load_rejects(self, tmp_path, channels, in_channels, error):
        path = tmp_path / "bad.nawt"
        _write_raw_checkpoint(path, channels, in_channels)
        with pytest.raises(error):
            load_checkpoint(path)

    @pytest.mark.parametrize("channels,in_channels", [case[:2] for case in CASES])
    def test_cli_predict_exits_runtime_error(self, tmp_path, channels, in_channels):
        labels, _ = make_phantom(PhantomSpec(size=32, seed=0))
        a = make_atrophy(AtrophySpec(seed=1), labels)
        write_field(tmp_path / "a.atrf", a)
        write_field(tmp_path / "labels.atrf", labels)
        _write_raw_checkpoint(tmp_path / "bad.nawt", channels, in_channels)
        out_u = tmp_path / "u.atrf"
        rc = cli(["predict", "--checkpoint", str(tmp_path / "bad.nawt"),
                  "--atrophy", str(tmp_path / "a.atrf"),
                  "--labels", str(tmp_path / "labels.atrf"), "--out-u", str(out_u)])
        assert rc == EXIT_RUNTIME
        assert not out_u.exists()
