"""Grasp-quality network: a small from-scratch CNN over depth patches.

Fixed architecture for an S x S input: three 3x3 conv + ReLU + 2x2 max-pool
stages (8 channels), one depthwise-separable block (16 channels), global
average pooling, and a single logit through a sigmoid. Everything - forward,
backward, Adam - is plain numpy: computation runs in float64 for stable
finite-difference checks, parameters are stored float32.

Arithmetic contract: logits, the 12 parameter gradients and so every
checkpoint and metric are pinned byte for byte, signed zeros and pooling
ties included (`tests/oracles.forward_backward_reference`). A rewrite of the
pass must keep each float operation and its order. The backward pass never
forms conv1's input gradient, the gradient of the image, as no parameter
reads it.

Each sample's conv -> ReLU -> pool chain, forward and backward, depends on
no other sample. So the three conv stages run over contiguous spans of the
batch, one span per usable core, each in chunks of a few samples; the spans
write per-sample results into whole-batch arrays. The batch reductions run
once on those arrays after every span has ended: each conv weight gradient
sums its per-sample products over the batch axis, and each bias gradient
sums the whole output gradient. The depthwise block, pointwise layer, GAP
and fc head run on the whole batch. No float operation moves between
samples, so the bytes do not depend on the core count.

Training minimizes class-weighted binary cross-entropy with per-class
weights from the label distribution, on a stratified split of the stacked
patches. Optional augmentation flips the stacked training block 4 ways, in
one array operation. The best validation-accuracy checkpoint wins.
"""

from __future__ import annotations

import csv
import io
import math
import os
import struct
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DegenerateInput, ShapeMismatch, SingleClass
from .fileio import atomic_write, read_input
from .simlab import check_patch_size, class_weights

_MAGIC = b"GFQN"
_VERSION = 1
_EPS_CLAMP = 1e-7
# Adam moment decay rates and denominator guard
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# the conv stages run over contiguous spans of the batch, one per usable
# core: the calling thread takes the first span and this pool the others.
# Its threads start on first use, so one core starts none.
_CORES = len(os.sched_getaffinity(0))
_POOL = ThreadPoolExecutor(max_workers=max(_CORES - 1, 1))
# samples per pass inside a span, so that a chunk's full-resolution
# activations stay in the core's cache
_CHUNK = 4

# parameter tensor shapes, fixed given the input size
_PARAM_SHAPES = (
    ("conv1_w", (8, 1, 3, 3)), ("conv1_b", (8,)),
    ("conv2_w", (8, 8, 3, 3)), ("conv2_b", (8,)),
    ("conv3_w", (8, 8, 3, 3)), ("conv3_b", (8,)),
    ("dw_w", (8, 3, 3)), ("dw_b", (8,)),
    ("pw_w", (16, 8)), ("pw_b", (16,)),
    ("fc_w", (16,)), ("fc_b", (1,)),
)


@dataclass
class QualityNet:
    """Parameter container; `params` follows _PARAM_SHAPES order."""

    size: int
    params: list

    def __post_init__(self):
        check_patch_size(self.size)
        if len(self.params) != len(_PARAM_SHAPES):
            raise ShapeMismatch("wrong parameter count")
        for arr, (name, shape) in zip(self.params, _PARAM_SHAPES):
            if arr.shape != shape:
                raise ShapeMismatch(f"{name}: expected {shape}, got {arr.shape}")
            if not np.isfinite(arr).all():
                raise DegenerateInput(f"{name} contains non-finite values")


def init_net(size: int, rng: np.random.Generator) -> QualityNet:
    """He-uniform weights, zero biases; deterministic per generator state."""
    params = []
    for name, shape in _PARAM_SHAPES:
        if name.endswith("_b"):
            params.append(np.zeros(shape, dtype=np.float32))
            continue
        fan_in = int(np.prod(shape[1:])) if len(shape) > 1 else shape[0]
        limit = math.sqrt(6.0 / fan_in)
        params.append(rng.uniform(-limit, limit, size=shape).astype(np.float32))
    return QualityNet(size, params)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _pad1(x: np.ndarray) -> np.ndarray:
    """x with a one-cell zero border on its last two axes."""
    n, c, h, w = x.shape
    padded = np.zeros((n, c, h + 2, w + 2), dtype=x.dtype)
    padded[:, :, 1:-1, 1:-1] = x
    return padded


def _conv_cols(x: np.ndarray) -> np.ndarray:
    """im2col for 3x3 stride-1 same-padding: (N,C,H,W) -> (N, C*9, H*W)."""
    n, c, h, w = x.shape
    win = sliding_window_view(_pad1(x), (3, 3), axis=(2, 3))   # (N,C,H,W,3,3)
    return win.transpose(0, 1, 4, 5, 2, 3).reshape(n, c * 9, h * w)


def _conv_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    n, _, h, wd = x.shape
    co = w.shape[0]
    cols = _conv_cols(x)
    out = np.matmul(w.reshape(co, -1), cols)
    out += b[:, None]
    return out.reshape(n, co, h, wd), cols


def _conv_input_grad(dy: np.ndarray, w: np.ndarray) -> np.ndarray:
    # dX of a same-padded correlation is a same-padded correlation with the
    # spatially flipped, channel-transposed kernel
    w_flip = w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
    dx, _ = _conv_forward(dy, np.ascontiguousarray(w_flip), np.zeros(w.shape[1]))
    return dx


def _depthwise_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    win = sliding_window_view(_pad1(x), (3, 3), axis=(2, 3))
    out = np.einsum("nchwij,cij->nchw", win, w, optimize=True) + b[None, :, None, None]
    return out, win


def _depthwise_backward(dy: np.ndarray, win: np.ndarray, w: np.ndarray):
    dw = np.einsum("nchwij,nchw->cij", win, dy, optimize=True)
    db = dy.sum(axis=(0, 2, 3))
    dx, _ = _depthwise_forward(dy, w[:, ::-1, ::-1], np.zeros(w.shape[0]))
    return dx, dw, db


_QUADRANTS = ((0, 0), (0, 1), (1, 0), (1, 1))


def _pool_forward(x: np.ndarray):
    """2x2 stride-2 max pool and the winning quadrant of each output.

    Ties break toward the lowest quadrant index so exactly one input cell
    receives the gradient.
    """
    quads = [x[:, :, dy::2, dx::2] for dy, dx in _QUADRANTS]
    out = quads[0]
    arg = np.zeros(out.shape, dtype=np.int8)
    for k in (1, 2, 3):
        better = quads[k] > out
        out = np.where(better, quads[k], out)
        # every earlier winner is below k, so the max sets k exactly where better
        np.maximum(arg, better.view(np.int8) * np.int8(k), out=arg)
    return out, arg


def _pool_relu_backward(dy: np.ndarray, arg: np.ndarray, mask: np.ndarray,
                        dx: np.ndarray) -> np.ndarray:
    """Gradient through the pool into each winning cell, +0.0 elsewhere,
    then through the ReLU mask; written into and returned as dx."""
    # a bitwise AND with all-ones or all-zeros picks dy's bytes or +0.0
    # without a data-dependent branch per element
    dx_bits = dx.view(np.int64)
    pick = np.empty(arg.shape, dtype=np.int64)
    for k, (qy, qx) in enumerate(_QUADRANTS):
        np.negative(np.equal(arg, k).view(np.int8), out=pick, casting="unsafe")
        np.bitwise_and(dy.view(np.int64), pick, out=dx_bits[:, :, qy::2, qx::2])
    dx *= mask
    return dx


def _spans(n: int) -> list[tuple[int, int]]:
    """Contiguous (start, stop) spans of range(n), each a whole number of
    chunks but the last, at most one per core."""
    chunks = -(-n // _CHUNK)
    k = min(_CORES, chunks)
    edges = [min(j * chunks // k * _CHUNK, n) for j in range(k + 1)]
    return list(zip(edges[:-1], edges[1:]))


def _fan_out(task, n: int) -> None:
    """task(start, stop) over `_spans(n)`: the calling thread takes the first
    span and the pool the others. Returns once every span has ended, and
    raises the first span's error, else the first failed worker's."""
    first, *rest = _spans(n)
    futures = [_POOL.submit(task, *span) for span in rest]
    try:
        task(*first)
    finally:
        wait(futures)
    for future in futures:
        future.result()


def _forward_batch(net: QualityNet, x: np.ndarray):
    """Logits plus the cache needed for one backward pass; x is (N, S, S)."""
    p = [a.astype(np.float64) for a in net.params]
    n, s = x.shape[0], x.shape[-1]
    # conv stage i reads ins[i] and writes its ReLU mask, its pool winners
    # and ins[i + 1]; the spans fill these whole-batch arrays in place
    ins = [x.astype(np.float64)[:, None, :, :]]
    ins += [np.empty((n, 8, s >> i, s >> i)) for i in (1, 2, 3)]
    masks = [np.empty((n, 8, s >> i, s >> i), dtype=bool) for i in (0, 1, 2)]
    args = [np.empty((n, 8, s >> i, s >> i), dtype=np.int8) for i in (1, 2, 3)]

    def conv_stages(start: int, stop: int) -> None:
        for a in range(start, stop, _CHUNK):
            b = min(a + _CHUNK, stop)
            for i in range(3):
                z, _ = _conv_forward(ins[i][a:b], p[2 * i], p[2 * i + 1])
                z *= np.greater(z, 0, out=masks[i][a:b])
                ins[i + 1][a:b], args[i][a:b] = _pool_forward(z)

    _fan_out(conv_stages, n)
    z, win = _depthwise_forward(ins[3], p[6], p[7])
    dw_mask = z > 0
    hd = z * dw_mask
    zp = np.einsum("nchw,kc->nkhw", hd, p[8], optimize=True) + p[9][None, :, None, None]
    pw_mask = zp > 0
    hp = zp * pw_mask
    pooled = hp.mean(axis=(2, 3))
    logits = pooled @ p[10] + p[11][0]
    cache = {"p": p, "acts": list(zip(ins, masks, args)), "win": win,
             "dw_mask": dw_mask, "hd": hd, "pw_mask": pw_mask,
             "hp_shape": hp.shape, "pooled": pooled}
    return logits, cache


def _backward_batch(dlogits: np.ndarray, cache):
    p = cache["p"]
    grads = [None] * len(p)
    pooled = cache["pooled"]
    grads[10] = pooled.T @ dlogits
    grads[11] = np.array([dlogits.sum()])
    dpooled = dlogits[:, None] * p[10][None, :]
    n, c, hh, ww = cache["hp_shape"]
    dhp = np.broadcast_to(dpooled[:, :, None, None], (n, c, hh, ww)) / (hh * ww)
    dzp = dhp * cache["pw_mask"]
    grads[8] = np.einsum("nkhw,nchw->kc", dzp, cache["hd"], optimize=True)
    grads[9] = dzp.sum(axis=(0, 2, 3))
    dhd = np.einsum("nkhw,kc->nchw", dzp, p[8], optimize=True)
    dz = dhd * cache["dw_mask"]
    dh, grads[6], grads[7] = _depthwise_backward(dz, cache["win"], p[6])
    acts = cache["acts"]
    # each conv stage's output gradient and per-sample weight-gradient
    # products, filled by the spans and summed over the batch after the join
    dzs = [np.empty(mask.shape) for _, mask, _ in acts]
    prods = [np.empty((n, 8, 9 * h.shape[1])) for h, _, _ in acts]

    def conv_stages(start: int, stop: int) -> None:
        for a in range(start, stop, _CHUNK):
            b = min(a + _CHUNK, stop)
            d = dh[a:b]
            for i in reversed(range(3)):
                h, mask, arg = acts[i]
                dz = _pool_relu_backward(d, arg[a:b], mask[a:b], dzs[i][a:b])
                np.matmul(dz.reshape(b - a, 8, -1), _conv_cols(h[a:b]).transpose(0, 2, 1),
                          out=prods[i][a:b])
                if i > 0:   # no parameter reads the image's gradient
                    d = _conv_input_grad(dz, p[2 * i])

    _fan_out(conv_stages, n)
    for i in range(3):
        grads[2 * i] = prods[i].sum(axis=0).reshape(p[2 * i].shape)
        grads[2 * i + 1] = dzs[i].sum(axis=(0, 2, 3))
    return grads


def forward_many(net: QualityNet, patches) -> np.ndarray:
    """Qualities in (0, 1) for a sequence of same-sized patches, by the
    sigmoid; deterministic."""
    if not patches:
        return np.zeros(0)
    for patch in patches:
        if patch.size != net.size:
            raise ShapeMismatch(f"patch size {patch.size} != net input {net.size}")
    x = np.stack([p.data for p in patches])
    logits, _ = _forward_batch(net, x)
    return _sigmoid(logits)


def loss(y_hat, y, phi: tuple[float, float]) -> float:
    """Class-weighted binary cross-entropy, averaged over the batch.

    Predictions are clamped to [1e-7, 1 - 1e-7] so a confidently wrong
    output stays finite.
    """
    q = np.clip(np.atleast_1d(np.asarray(y_hat, dtype=np.float64)),
                _EPS_CLAMP, 1.0 - _EPS_CLAMP)
    yv = np.atleast_1d(np.asarray(y, dtype=np.float64))
    if q.shape != yv.shape:
        raise ShapeMismatch("prediction and label batches differ in length")
    w = np.where(yv == 1, phi[1], phi[0])
    per = -w * (yv * np.log(q) + (1.0 - yv) * np.log(1.0 - q))
    return float(per.mean())


def gradients(net: QualityNet, batch, phi: tuple[float, float]) -> list:
    """Exact reverse-mode gradients of the mean batch loss.

    `batch` is (patches, labels) with patches an (N, S, S) array.
    """
    x, y = batch
    y = np.asarray(y, dtype=np.float64)
    if len(x) == 0:
        raise DegenerateInput("batch must be nonempty")
    logits, cache = _forward_batch(net, x)
    return _backward_batch(_dlogits(_sigmoid(logits), y, phi), cache)


def _dlogits(q: np.ndarray, y: np.ndarray, phi: tuple[float, float]) -> np.ndarray:
    """Gradient of the mean weighted loss with respect to the logits, given
    the batch's predictions q."""
    w = np.where(y == 1, phi[1], phi[0])
    # the clamp zeroes the gradient once a prediction saturates past it
    live = (q > _EPS_CLAMP) & (q < 1.0 - _EPS_CLAMP)
    return w * (q - y) * live / len(y)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 50
    batch_size: int = 32
    lr: float = 1e-3
    val_fraction: float = 0.2
    augment: bool = True
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.lr < math.inf:
            raise DegenerateInput("learning rate must be finite and non-negative")
        if self.seed < 0:
            raise DegenerateInput("seed must be non-negative")
        if not 0.0 < self.val_fraction < 1.0:
            raise DegenerateInput("val_fraction must be in (0, 1)")
        if self.epochs < 1 or self.batch_size < 1:
            raise DegenerateInput("epochs and batch_size must be positive")


@dataclass
class AdamState:
    params: list
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)
    t: int = 0

    def __post_init__(self):
        if not self.m:
            self.m = [np.zeros_like(p, dtype=np.float32) for p in self.params]
            self.v = [np.zeros_like(p, dtype=np.float32) for p in self.params]


def adam_step(state: AdamState, grads: list, cfg: TrainConfig) -> AdamState:
    """One bias-corrected Adam update; mutates and returns the state."""
    if len(grads) != len(state.params):
        raise ShapeMismatch("gradient count does not match parameters")
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1 = 1.0 - b1 ** state.t
    c2 = 1.0 - b2 ** state.t
    for i, g in enumerate(grads):
        if g.shape != state.params[i].shape:
            raise ShapeMismatch(f"gradient {i} shape {g.shape}")
        g64 = g.astype(np.float64)
        m = b1 * state.m[i].astype(np.float64) + (1.0 - b1) * g64
        v = b2 * state.v[i].astype(np.float64) + (1.0 - b2) * g64 * g64
        step = cfg.lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
        state.params[i] = (state.params[i].astype(np.float64) - step).astype(np.float32)
        state.m[i] = m.astype(np.float32)
        state.v[i] = v.astype(np.float32)
    return state


def augment(x: np.ndarray) -> np.ndarray:
    """(N, S, S) patches to (4N, S, S): each patch, then its columns
    reversed, its rows reversed, and both. A parallel-jaw grasp is symmetric
    under all four flips, so each patch's label carries over unchanged."""
    flips = np.stack([x, x[:, :, ::-1], x[:, ::-1, :], x[:, ::-1, ::-1]], axis=1)
    return flips.reshape(-1, *x.shape[1:])


@dataclass
class TrainResult:
    net: QualityNet
    history: list          # dict rows: epoch, train_loss, val_acc, val_prec, val_rec
    best_epoch: int
    best_val_acc: float


def write_metrics(history: list, path: str | Path) -> None:
    """Metric log as CSV: epoch, train_loss, val_acc, val_prec, val_rec;
    written atomically."""
    text = io.StringIO()
    out = csv.writer(text)
    out.writerow(["epoch", "train_loss", "val_acc", "val_prec", "val_rec"])
    for row in history:
        out.writerow([row["epoch"], f"{row['train_loss']:.6f}",
                      f"{row['val_acc']:.4f}", f"{row['val_prec']:.4f}",
                      f"{row['val_rec']:.4f}"])
    atomic_write(path, text.getvalue())


def _val_metrics(net: QualityNet, x: np.ndarray, y: np.ndarray):
    preds = np.zeros(len(y))
    for start in range(0, len(y), 256):
        logits, _ = _forward_batch(net, x[start:start + 256])
        preds[start:start + 256] = _sigmoid(logits)
    hard = preds >= 0.5
    acc = float((hard == (y == 1)).mean())
    tp = float(np.sum(hard & (y == 1)))
    fp = float(np.sum(hard & (y == 0)))
    fn = float(np.sum(~hard & (y == 1)))
    prec = tp / (tp + fp) if tp + fp > 0 else 0.0
    rec = tp / (tp + fn) if tp + fn > 0 else 0.0
    return acc, prec, rec


def train(dataset, cfg: TrainConfig) -> TrainResult:
    """Stratified split, shuffled minibatch Adam on the weighted loss,
    per-epoch metrics, best-validation-accuracy checkpoint. Deterministic
    per seed.

    The samples' patches are stacked once into an (N, S, S) array; the
    splits select rows of it, and augmentation flips the training block."""
    samples = list(dataset)
    if not samples:
        raise DegenerateInput("dataset is empty")
    x = np.stack([s.patch.data for s in samples])
    labels = np.array([s.label for s in samples])
    rng = np.random.default_rng(cfg.seed)

    pos = np.flatnonzero(labels == 1)
    neg = np.flatnonzero(labels == 0)
    if len(pos) == 0 or len(neg) == 0:
        raise SingleClass("training needs both label classes")
    rng.shuffle(pos)
    rng.shuffle(neg)
    n_val_pos = max(1, int(round(cfg.val_fraction * len(pos))))
    n_val_neg = max(1, int(round(cfg.val_fraction * len(neg))))
    if n_val_pos >= len(pos) or n_val_neg >= len(neg):
        raise DegenerateInput("too few samples in a class to split")
    val_idx = np.concatenate([pos[:n_val_pos], neg[:n_val_neg]])
    train_idx = np.concatenate([pos[n_val_pos:], neg[n_val_neg:]])

    x_train, y_train = x[train_idx], labels[train_idx].astype(np.float64)
    if cfg.augment:
        x_train, y_train = augment(x_train), np.repeat(y_train, 4)
    phi = class_weights(y_train)
    x_val, y_val = x[val_idx], labels[val_idx].astype(np.float64)

    net = init_net(x.shape[1], rng)
    state = AdamState(params=net.params)
    best = ([p.copy() for p in net.params], 0, -1.0)
    history = []
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(len(x_train))
        total, seen = 0.0, 0
        for start in range(0, len(order), cfg.batch_size):
            sel = order[start:start + cfg.batch_size]
            xb, yb = x_train[sel], y_train[sel]
            # `cache` stays bound until the next forward pass allocates its own;
            # freed sooner, its pages go back to the OS and fault in every batch
            logits, cache = _forward_batch(net, xb)
            q = _sigmoid(logits)
            total += loss(q, yb, phi) * len(sel)
            seen += len(sel)
            state = adam_step(state, _backward_batch(_dlogits(q, yb, phi), cache), cfg)
            net.params = state.params
        acc, prec, rec = _val_metrics(net, x_val, y_val)
        history.append({"epoch": epoch, "train_loss": total / seen,
                        "val_acc": acc, "val_prec": prec, "val_rec": rec})
        if acc > best[2]:
            best = ([p.copy() for p in net.params], epoch, acc)
    return TrainResult(net=QualityNet(net.size, best[0]), history=history,
                       best_epoch=best[1], best_val_acc=best[2])


def save_net(net: QualityNet, path: str | Path) -> None:
    """Little-endian checkpoint: magic, version, input size, then each
    tensor as rank, dims, f32 data; written atomically."""
    blob = bytearray(_MAGIC)
    blob += struct.pack("<II", _VERSION, net.size)
    for arr in net.params:
        blob += struct.pack("<I", arr.ndim)
        blob += struct.pack(f"<{arr.ndim}I", *arr.shape)
        blob += arr.astype("<f4").tobytes()
    atomic_write(path, bytes(blob))


def load_net(path: str | Path) -> QualityNet:
    """Read a `save_net` checkpoint through `read_input`: a missing file
    raises DatasetNotFound; a file that ends early, has bytes left over,
    has the wrong header or holds tensors of the wrong shapes raises
    DegenerateInput naming the path."""
    return read_input(path, _parse_net)


def _parse_net(raw: bytes) -> QualityNet:
    offset = 0

    def take(n: int) -> bytes:
        nonlocal offset
        if offset + n > len(raw):
            raise DegenerateInput(f"checkpoint ends early, at byte {len(raw)}")
        offset += n
        return raw[offset - n:offset]

    if take(4) != _MAGIC:
        raise DegenerateInput("bad checkpoint magic")
    version, size = struct.unpack("<II", take(8))
    if version != _VERSION:
        raise DegenerateInput(f"unsupported checkpoint version {version}")
    params = []
    for _ in _PARAM_SHAPES:
        (rank,) = struct.unpack("<I", take(4))
        dims = struct.unpack(f"<{rank}I", take(4 * rank))
        arr = np.frombuffer(take(4 * math.prod(dims)), dtype="<f4")
        params.append(arr.reshape(dims).copy())
    if offset != len(raw):
        raise DegenerateInput(f"{len(raw) - offset} bytes left over after the checkpoint")
    return QualityNet(size, params)
