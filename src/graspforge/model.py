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
reads it. In the fc head's `pooled @ p[10]` the first 4*floor(n/4) rows of
an n-row pass have the bytes of a longer pass and the last n mod 4 may not,
so `_VAL_CHUNK` (256, a multiple of 4) and `batch_size` are pinned too.

Each sample's conv -> ReLU -> pool chain, forward and backward, depends on
no other sample. So the three conv stages run over contiguous spans of the
batch, one span per usable core, each in chunks of a few samples; the spans
write per-sample results into whole-batch arrays. The batch reductions run
once on those arrays after every span has ended: each conv weight gradient
sums its per-sample products over the batch axis, and each bias gradient
sums its per-sample partials (each sample's output gradient summed over the
map) over the batch axis, which numpy does in the order, and so with the
bytes, of one sum of the whole-batch output gradient over the sample and map
axes. The depthwise block, pointwise layer, GAP and fc head run on the whole
batch. No float operation moves between samples, so the bytes do not depend
on the core count.

Each `train` or `forward_many` call, and each `gradients` call given none,
builds one workspace and drops it when it returns. It holds, sized for the
call's largest pass, each conv stage's pooled output and pool winners, the
per-sample bias partials and weight-gradient products, and each span's
chunk scratch. Every pass reuses it, a shorter one through a row prefix, so
no training step allocates a large array. It keeps nothing a pass can
re-derive: conv1 reads the patches themselves (im2col's copy makes the
exact float32 -> float64 cast), and no full-resolution ReLU mask is stored,
since the backward pass gates each stage by its pooled output instead. A
pool winner's ReLU passed exactly where its pooled value is above 0, and
every other cell's gradient is +0.0, which either gate leaves +0.0; so
multiplying the pooled-size gradient by `pooled > 0` before scattering it
gives the bytes of scattering it and multiplying by the full mask.

Training minimizes class-weighted binary cross-entropy with per-class
weights from the label distribution, on a stratified split of the patch
block; each step is one `gradients` call and one Adam update. Optional
augmentation flips each patch 4 ways: each batch draws its rows of the flip
block, which is never formed. The best validation-accuracy checkpoint wins.
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
# samples per validation forward pass; the logits' bytes depend on it
_VAL_CHUNK = 256

# parameter tensor shapes, fixed given the input size
_PARAM_SHAPES = (
    ("conv1_w", (8, 1, 3, 3)), ("conv1_b", (8,)),
    ("conv2_w", (8, 8, 3, 3)), ("conv2_b", (8,)),
    ("conv3_w", (8, 8, 3, 3)), ("conv3_b", (8,)),
    ("dw_w", (8, 3, 3)), ("dw_b", (8,)),
    ("pw_w", (16, 8)), ("pw_b", (16,)),
    ("fc_w", (16,)), ("fc_b", (1,)),
)


def check_patch_size(size: int) -> None:
    """Raise DegenerateInput unless `size` is a patch side the network
    takes: its three 2x2 max-pools need a positive multiple of 8."""
    if size < 8 or size % 8 != 0:
        raise DegenerateInput(f"patch_size must be a positive multiple of 8, got {size}")


@dataclass
class QualityNet:
    """Parameter container; `params` follows _PARAM_SHAPES order. The size
    is one `check_patch_size` takes and every tensor is finite: `load_net`
    checks a stored net, and `train` takes its size from a checked dataset."""

    size: int
    params: list


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


# the taps of a 3x3 kernel in im2col row order
_TAPS = tuple((dy, dx) for dy in range(3) for dx in range(3))


def _im2col(x: np.ndarray, pad: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """im2col for 3x3 stride-1 same-padding: (m,C,H,W) -> (m, C*9, H*W).

    x is copied into the interior of `pad`, whose border holds zeros, and the
    nine shifted windows of `pad` into a prefix of the flat scratch `cols`;
    the result is a view of that prefix."""
    m, c, h, w = x.shape
    pad = pad[:m]
    pad[:, :, 1:-1, 1:-1] = x
    out = cols[:m * c * 9 * h * w].reshape(m, c, 9, h, w)
    for k, (dy, dx) in enumerate(_TAPS):
        out[:, :, k] = pad[:, :, dy:dy + h, dx:dx + w]
    return out.reshape(m, c * 9, h * w)


def _conv_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray, pad: np.ndarray,
                  cols: np.ndarray, out: np.ndarray) -> np.ndarray:
    """3x3 same-padded correlation of x plus the bias, as a view of a prefix
    of the flat scratch `out`; `pad` and `cols` are `_im2col`'s scratch."""
    m, _, h, wd = x.shape
    co = w.shape[0]
    z = np.matmul(w.reshape(co, -1), _im2col(x, pad, cols),
                  out=out[:m * co * h * wd].reshape(m, co, h * wd))
    z += b[:, None]
    return z.reshape(m, co, h, wd)


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


def _pool_relu_backward(dy: np.ndarray, pooled: np.ndarray, arg: np.ndarray,
                        dx: np.ndarray) -> np.ndarray:
    """Gradient through the ReLU and the pool: dy, gated in place by
    pooled > 0, into each winning cell and +0.0 elsewhere; written into and
    returned as dx."""
    dy *= pooled > 0
    # a bitwise AND with all-ones or all-zeros picks dy's bytes or +0.0
    # without a data-dependent branch per element
    dx_bits = dx.view(np.int64)
    pick = np.empty(arg.shape, dtype=np.int64)
    for k, (qy, qx) in enumerate(_QUADRANTS):
        np.negative(np.equal(arg, k).view(np.int8), out=pick, casting="unsafe")
        np.bitwise_and(dy.view(np.int64), pick, out=dx_bits[:, :, qy::2, qx::2])
    return dx


def _spans(n: int) -> list[tuple[int, int]]:
    """Contiguous (start, stop) spans of range(n), each a whole number of
    chunks but the last, at most one per core."""
    chunks = -(-n // _CHUNK)
    k = min(_CORES, chunks)
    edges = [min(j * chunks // k * _CHUNK, n) for j in range(k + 1)]
    return list(zip(edges[:-1], edges[1:]))


def _fan_out(task, n: int) -> None:
    """task(j, start, stop) for the j-th of `_spans(n)`: the calling thread
    takes the first span and the pool the others. Returns once every span
    has ended, and raises the first span's error, else the first failed
    worker's."""
    first, *rest = _spans(n)
    futures = [_POOL.submit(task, j, *span) for j, span in enumerate(rest, 1)]
    try:
        task(0, *first)
    finally:
        wait(futures)
    for future in futures:
        future.result()


class _SpanScratch:
    """One span's chunk buffers: a zero-bordered input per conv stage shape
    (the border is written once), flat im2col rows sized for the largest
    stage, one flat buffer for a stage's conv output (forward) or output
    gradient (backward), and a quarter-size one for the backward pass's
    input gradient; each use takes a reshaped prefix."""

    def __init__(self, stages: list[tuple[int, int]]):
        self.pads = [np.zeros((_CHUNK, c, h + 2, h + 2)) for c, h in stages]
        self.cols = np.empty(_CHUNK * max(9 * c * h * h for c, h in stages))
        self.out = np.empty(_CHUNK * 8 * stages[0][1] ** 2)
        self.dx = np.empty(_CHUNK * 8 * stages[1][1] ** 2)


class _Workspace:
    """The large arrays of the passes of one `train`, `gradients` or
    `forward_many` call over batches of up to `rows` S x S samples. A pass
    of n rows uses the first n of each whole-batch array; the conv stages'
    j-th span uses `spans[j]`. It lives as long as the call."""

    def __init__(self, rows: int, s: int):
        # conv stage i's input channels and side
        stages = [(c, s >> i) for i, c in enumerate((1, 8, 8))]
        # each stage's pooled output, which is the next stage's input and
        # gives its own ReLU gate, and its pool winners
        self.outs = [np.empty((rows, 8, h >> 1, h >> 1)) for _, h in stages]
        self.args = [np.empty((rows, 8, h >> 1, h >> 1), dtype=np.int8) for _, h in stages]
        # per-sample bias-gradient partials and weight-gradient products
        self.partials = [np.empty((rows, 8)) for _ in stages]
        self.prods = [np.empty((rows, 8, 9 * c)) for c, _ in stages]
        self.spans = [_SpanScratch(stages) for _ in _spans(rows)]


def _forward_batch(net: QualityNet, x: np.ndarray, ws: _Workspace | None = None):
    """Logits plus the cache needed for one backward pass; x is (N, S, S).
    The conv stages' arrays live in `ws`, by default a workspace of N rows,
    until its next pass."""
    n, s = x.shape[0], x.shape[-1]
    if ws is None:
        ws = _Workspace(n, s)
    p = [a.astype(np.float64) for a in net.params]
    # conv stage i reads ins[i], x itself for conv1, and writes its pool
    # winners and ins[i + 1]; the spans fill these whole-batch arrays in place
    outs, args = ([a[:n] for a in arrs] for arrs in (ws.outs, ws.args))
    ins = [x[:, None], *outs]

    def conv_stages(j: int, start: int, stop: int) -> None:
        sc = ws.spans[j]
        for a in range(start, stop, _CHUNK):
            b = min(a + _CHUNK, stop)
            for i in range(3):
                z = _conv_forward(ins[i][a:b], p[2 * i], p[2 * i + 1],
                                  sc.pads[i], sc.cols, sc.out)
                z *= z > 0
                outs[i][a:b], args[i][a:b] = _pool_forward(z)

    _fan_out(conv_stages, n)
    z, win = _depthwise_forward(outs[2], p[6], p[7])
    dw_mask = z > 0
    hd = z * dw_mask
    zp = np.einsum("nchw,kc->nkhw", hd, p[8], optimize=True) + p[9][None, :, None, None]
    pw_mask = zp > 0
    hp = zp * pw_mask
    pooled = hp.mean(axis=(2, 3))
    logits = pooled @ p[10] + p[11][0]
    cache = {"p": p, "ws": ws, "acts": list(zip(ins, outs, args)), "win": win,
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
    acts, ws = cache["acts"], cache["ws"]
    # each conv stage's per-sample bias-gradient partials and weight-gradient
    # products, filled by the spans and summed over the batch after the join
    partials = [a[:n] for a in ws.partials]
    prods = [a[:n] for a in ws.prods]
    # dX of a same-padded correlation is a same-padded correlation with the
    # spatially flipped, channel-transposed kernel, and no bias
    w_flip = {i: np.ascontiguousarray(p[2 * i][:, :, ::-1, ::-1].transpose(1, 0, 2, 3))
              for i in (1, 2)}
    no_bias = np.zeros(8)

    def conv_stages(j: int, start: int, stop: int) -> None:
        sc = ws.spans[j]
        for a in range(start, stop, _CHUNK):
            b = min(a + _CHUNK, stop)
            d = dh[a:b]
            for i in reversed(range(3)):
                h, out, arg = (arr[a:b] for arr in acts[i])
                shape = (b - a, 8, *h.shape[2:])
                dz = _pool_relu_backward(d, out, arg, sc.out[:math.prod(shape)].reshape(shape))
                dzf = dz.reshape(b - a, 8, -1)
                np.sum(dzf, axis=2, out=partials[i][a:b])
                np.matmul(dzf, _im2col(h, sc.pads[i], sc.cols).transpose(0, 2, 1),
                          out=prods[i][a:b])
                if i > 0:   # no parameter reads the image's gradient
                    d = _conv_forward(dz, w_flip[i], no_bias, sc.pads[i], sc.cols, sc.dx)

    _fan_out(conv_stages, n)
    for i in range(3):
        grads[2 * i] = prods[i].sum(axis=0).reshape(p[2 * i].shape)
        grads[2 * i + 1] = partials[i].sum(axis=0)
    return grads


def forward_many(net: QualityNet, patches) -> np.ndarray:
    """Qualities in (0, 1) for a non-empty sequence of patches of the net's
    input size, by the sigmoid; deterministic."""
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
    w = np.where(yv == 1, phi[1], phi[0])
    per = -w * (yv * np.log(q) + (1.0 - yv) * np.log(1.0 - q))
    return float(per.mean())


def class_weights(labels) -> tuple[float, float]:
    """Inverse-frequency loss weights (phi0, phi1) of the two classes,
    normalized to mean 1, from 0/1 labels."""
    labels = np.asarray(labels)
    if not np.isin(labels, (0, 1)).all():
        raise DegenerateInput("labels must be 0 or 1")
    counts = np.bincount(labels.astype(int), minlength=2)
    if counts[0] == 0 or counts[1] == 0:
        raise SingleClass(f"need both classes, got counts {counts.tolist()}")
    inv = 1.0 / counts
    phi = inv / inv.mean()
    return float(phi[0]), float(phi[1])


def gradients(net: QualityNet, batch, phi: tuple[float, float],
              ws: _Workspace | None = None) -> tuple[float, list]:
    """Training's step: the mean weighted loss of `batch`, (patches, labels)
    with patches an (N, S, S) array, and its exact reverse-mode gradients,
    one per parameter tensor. The passes run in `ws`, by default a
    workspace of N rows."""
    x, y = batch
    y = np.asarray(y, dtype=np.float64)
    logits, cache = _forward_batch(net, x, ws)
    q = _sigmoid(logits)
    return loss(q, y, phi), _backward_batch(_dlogits(q, y, phi), cache)


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
            raise DegenerateInput("lr (learning rate) must be finite and non-negative")
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
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1 = 1.0 - b1 ** state.t
    c2 = 1.0 - b2 ** state.t
    for i, g in enumerate(grads):
        g64 = g.astype(np.float64)
        m = b1 * state.m[i].astype(np.float64) + (1.0 - b1) * g64
        v = b2 * state.v[i].astype(np.float64) + (1.0 - b2) * g64 * g64
        step = cfg.lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
        state.params[i] = (state.params[i].astype(np.float64) - step).astype(np.float32)
        state.m[i] = m.astype(np.float32)
        state.v[i] = v.astype(np.float32)
    return state


def augment(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The given rows, in order, of the (4N, S, S) flip block of the (N, S, S)
    patches x, without forming the block: row 4i + k is patch i under flip k,
    which is none, columns reversed, rows reversed, then both. A parallel-jaw
    grasp is symmetric under all four flips, so each patch's label carries
    over unchanged."""
    src, flip = np.divmod(rows, 4)
    out = np.empty((len(rows), *x.shape[1:]), dtype=x.dtype)
    for k, view in enumerate((x, x[:, :, ::-1], x[:, ::-1, :], x[:, ::-1, ::-1])):
        pick = flip == k
        out[pick] = view[src[pick]]
    return out


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


def _val_metrics(net: QualityNet, x: np.ndarray, idx: np.ndarray, y: np.ndarray,
                 ws: _Workspace):
    """Accuracy, precision and recall on the rows `idx` of x, labelled y."""
    preds = np.zeros(len(y))
    for start in range(0, len(y), _VAL_CHUNK):
        logits, _ = _forward_batch(net, x[idx[start:start + _VAL_CHUNK]], ws)
        preds[start:start + _VAL_CHUNK] = _sigmoid(logits)
    hard = preds >= 0.5
    acc = float((hard == (y == 1)).mean())
    tp = float(np.sum(hard & (y == 1)))
    fp = float(np.sum(hard & (y == 0)))
    fn = float(np.sum(~hard & (y == 1)))
    prec = tp / (tp + fp) if tp + fp > 0 else 0.0
    rec = tp / (tp + fn) if tp + fn > 0 else 0.0
    return acc, prec, rec


def train(x: np.ndarray, labels: np.ndarray, cfg: TrainConfig) -> TrainResult:
    """Stratified split, shuffled minibatch Adam on the weighted loss,
    per-epoch metrics, best-validation-accuracy checkpoint. Deterministic
    per seed.

    x is the (N, S, S) patch block and labels its N 0/1 labels, as
    `simlab.load_dataset` returns them; x is never copied whole: each batch
    draws its rows of x's flip block (rows 4i + k with augmentation, 4i
    without) and each validation chunk its rows of x. One workspace serves
    every pass."""
    if len(x) == 0:
        raise DegenerateInput("dataset is empty")
    class_weights(labels)   # the labels are 0 or 1, and both classes occur
    rng = np.random.default_rng(cfg.seed)

    pos = np.flatnonzero(labels == 1)
    neg = np.flatnonzero(labels == 0)
    rng.shuffle(pos)
    rng.shuffle(neg)
    n_val_pos = max(1, int(round(cfg.val_fraction * len(pos))))
    n_val_neg = max(1, int(round(cfg.val_fraction * len(neg))))
    if n_val_pos >= len(pos) or n_val_neg >= len(neg):
        raise DegenerateInput("too few samples in a class to split")
    val_idx = np.concatenate([pos[:n_val_pos], neg[:n_val_neg]])
    train_idx = np.concatenate([pos[n_val_pos:], neg[n_val_neg:]])

    y_train = labels[train_idx].astype(np.float64)
    if cfg.augment:
        rows, y_train = (4 * train_idx[:, None] + np.arange(4)).ravel(), np.repeat(y_train, 4)
    else:
        rows = 4 * train_idx
    phi = class_weights(y_train)
    y_val = labels[val_idx].astype(np.float64)
    ws = _Workspace(max(min(cfg.batch_size, len(rows)), min(_VAL_CHUNK, len(val_idx))),
                    x.shape[1])

    net = init_net(x.shape[1], rng)
    state = AdamState(params=net.params)
    best = ([p.copy() for p in net.params], 0, -1.0)
    history = []
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(len(rows))
        total, seen = 0.0, 0
        for start in range(0, len(order), cfg.batch_size):
            sel = order[start:start + cfg.batch_size]
            batch_loss, grads = gradients(net, (augment(x, rows[sel]), y_train[sel]), phi, ws)
            total += batch_loss * len(sel)
            seen += len(sel)
            state = adam_step(state, grads, cfg)
            net.params = state.params
        acc, prec, rec = _val_metrics(net, x, val_idx, y_val, ws)
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
    has the wrong header or an input size the network cannot take, or holds
    tensors of the wrong shapes or non-finite values raises DegenerateInput
    naming the path."""
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
    check_patch_size(size)
    params = []
    for name, shape in _PARAM_SHAPES:
        (rank,) = struct.unpack("<I", take(4))
        dims = struct.unpack(f"<{rank}I", take(4 * rank))
        if dims != shape:
            raise ShapeMismatch(f"{name}: expected {shape}, got {dims}")
        arr = np.frombuffer(take(4 * math.prod(dims)), dtype="<f4")
        if not np.isfinite(arr).all():
            raise DegenerateInput(f"{name} contains non-finite values")
        params.append(arr.reshape(dims).copy())
    if offset != len(raw):
        raise DegenerateInput(f"{len(raw) - offset} bytes left over after the checkpoint")
    return QualityNet(size, params)
