"""Time-conditioned MLP regressor, its training loop, and the time samplers.

The regressor learns F(x_t, t) ~ clean signal from interpolated pairs.  A
training step draws a batch of pairs, a time t per element from one of the
five supported distributions, forms

    x_t = (1 - t) x + t y + t * eps(t) * n,

and minimizes the empirical p-norm objective mean(|F(x_t, t) - x|^p) for
p = 1 (default) or p = 2, with gradients from hand-rolled backprop and an
adaptive-moment optimizer (beta1 = 0.9, beta2 = 0.999, eps = 1e-8) at a
fixed learning rate.  Time conditioning is by concatenation: the scalar t
is appended to the state, so the input width is d + 1.

Time distributions, parameterized as t = g(s) with s ~ U[0, 1]; the table
``_TIME_KINDS`` holds each one's draw and its CDF:

    linear_0      g(s) = s                        (plain uniform)
    linear_a      uniform with an atom at t = 1 of mass a / (1 + a)
    bias_t1       g(s) = sin(s pi / 2)            (mass toward t = 1)
    bias_t0       g(s) = sin((s - 1) pi / 2) + 1  (mass toward t = 0)
    bias_t0_t1    g(s) = sin(s pi / 2)^2          (mass toward both ends)
"""

from __future__ import annotations

import copy
import struct
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from .degradation import (
    ConstantSchedule,
    NoiseSchedule,
    _fields_eq,
    as_count,
    as_numbers,
    as_scalar,
    as_state,
    as_time,
    forward_interpolate,
    forward_noise_std,
)
from .worlds import _check_finite, derive_rng

__all__ = [
    "TIME_DISTRIBUTION_KINDS",
    "MlpRegressor",
    "TimeDistribution",
    "TrainConfig",
    "load_checkpoint",
    "loss_and_gradients",
    "sample_times",
    "save_checkpoint",
    "time_distribution_cdf",
    "train",
]

# kind -> (draw(rng, size, a), cdf(t, a)).  Each CDF inverts its draw's
# g(s); linear_a's is the whole mixture CDF, with the atom's jump at t = 1.
# The order numbers sweep_pt's default variants.
_TIME_KINDS = {
    "linear_0": (lambda rng, size, a: rng.random(size),
                 lambda t, a: t.copy()),
    "linear_a": (lambda rng, size, a: np.where(rng.random(size) < a / (1.0 + a),
                                               1.0, rng.random(size)),
                 lambda t, a: np.where(t >= 1.0, 1.0, t / (1.0 + a))),
    "bias_t1": (lambda rng, size, a: np.sin(rng.random(size) * (np.pi / 2.0)),
                lambda t, a: 2.0 / np.pi * np.arcsin(t)),
    "bias_t0": (lambda rng, size, a: np.sin((rng.random(size) - 1.0) * (np.pi / 2.0)) + 1.0,
                lambda t, a: 1.0 + 2.0 / np.pi * np.arcsin(t - 1.0)),
    "bias_t0_t1": (lambda rng, size, a: np.sin(rng.random(size) * (np.pi / 2.0)) ** 2,
                   lambda t, a: 2.0 / np.pi * np.arcsin(np.sqrt(t))),
}
TIME_DISTRIBUTION_KINDS = tuple(_TIME_KINDS)


@dataclass(frozen=True)
class TimeDistribution:
    """One of the five training-time distributions; ``a`` only matters for
    ``linear_a`` (atom mass a / (1 + a) at t = 1)."""

    kind: str
    a: float = 0.0

    def __post_init__(self):
        if self.kind not in TIME_DISTRIBUTION_KINDS:
            raise ValueError(
                f"kind must be one of {TIME_DISTRIBUTION_KINDS}, got {self.kind!r}"
            )
        object.__setattr__(self, "a", as_scalar(self.a, "a"))


def sample_times(dist: TimeDistribution, rng, size: int) -> np.ndarray:
    """Draw ``size`` times from ``dist``.

    For ``linear_a`` the atom is selected by a Bernoulli draw first, then a
    uniform fills the continuous part; atom draws are exactly 1.0, and the
    continuous part lives on [0, 1), so membership is detectable by
    ``t == 1.0``.
    """
    return _TIME_KINDS[dist.kind][0](rng, size, dist.a)


def time_distribution_cdf(dist: TimeDistribution, t):
    """Analytic CDF of ``dist`` evaluated at ``t`` (scalar or array); for
    ``linear_a`` the full mixture CDF, with the atom's jump landing at t = 1."""
    out = _TIME_KINDS[dist.kind][1](np.asarray(as_time(t)), dist.a)
    return float(out) if out.ndim == 0 else out


# ---- the MLP itself ---- #

# activation -> (function on pre-activations, derivative from the activated
# value); both overwrite their argument
_ACTIVATIONS = {
    "tanh": (lambda z: np.tanh(z, out=z),
             lambda a: np.subtract(1.0, np.multiply(a, a, out=a), out=a)),
    "relu": (lambda z: np.maximum(z, 0.0, out=z), lambda a: np.greater(a, 0.0, out=a)),
}


class _Workspace:
    """Kept arrays for one row count n: the (n, d + 1) input batch, each
    hidden layer's activations, and the backprop delta of each hidden layer,
    made at the first backward pass so that a model that only predicts
    never holds them.  Reusing them spares every call the page faults of
    fresh arrays above the allocator's mmap threshold."""

    def __init__(self, sizes: tuple, rows: int):
        self.rows = rows
        self.inputs = np.empty((rows, sizes[0]))
        self.hidden = [np.empty((rows, s)) for s in sizes[1:-1]]
        self.deltas = None


@dataclass
class MlpRegressor:
    """Fully connected regressor with input width d + 1 and output width d.

    ``weights[l]`` has shape (fan_out, fan_in); the last layer is linear,
    all earlier ones apply ``activation``.  The model keeps one workspace
    of scratch arrays, made again only when the batch row count changes;
    it is left out of ``==``, ``repr``, pickles, :meth:`copy` and
    checkpoints.  Arrays the model returns are never workspace arrays.
    """

    layer_sizes: tuple
    weights: list
    biases: list
    activation: str = "tanh"
    training_seed: Optional[int] = None
    _work: Optional[_Workspace] = field(default=None, init=False, repr=False,
                                        compare=False)
    __eq__ = _fields_eq

    def __post_init__(self):
        sizes = tuple(as_count(s, "layer_sizes") for s in self.layer_sizes)
        if len(sizes) < 2:
            raise ValueError("layer_sizes needs >= 2 positive entries")
        if sizes[0] != sizes[-1] + 1:
            raise ValueError(
                "input width must be output width + 1 (state plus scalar t)"
            )
        if self.activation not in _ACTIVATIONS:
            raise ValueError(
                f"activation must be one of {tuple(_ACTIVATIONS)}, got {self.activation!r}"
            )
        if len(self.weights) != len(sizes) - 1 or len(self.biases) != len(sizes) - 1:
            raise ValueError("need one weight/bias pair per layer")
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (sizes[l + 1], sizes[l]) or b.shape != (sizes[l + 1],):
                raise ValueError(f"layer {l} parameter shapes do not match layer_sizes")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValueError(f"layer {l} parameters contain non-finite values")
        if self.training_seed is not None:
            as_count(self.training_seed, "training_seed", 0, _SEED_MAX)
        self.layer_sizes = sizes

    @classmethod
    def create(cls, state_dim: int, hidden: Iterable[int], rng,
               activation: str = "tanh") -> "MlpRegressor":
        """Fresh model with 1/sqrt(fan_in) Gaussian weights and zero biases."""
        state_dim = as_count(state_dim, "state_dim")
        sizes = (state_dim + 1, *(as_count(h, "hidden") for h in hidden), state_dim)
        weights = []
        biases = []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            weights.append(rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=(fan_out, fan_in)))
            biases.append(np.zeros(fan_out))
        return cls(layer_sizes=sizes, weights=weights, biases=biases,
                   activation=activation)

    @property
    def state_dim(self) -> int:
        return self.layer_sizes[-1]

    def copy(self) -> "MlpRegressor":
        return copy.deepcopy(self)  # through __getstate__, so without the workspace

    def __getstate__(self):
        return {**self.__dict__, "_work": None}

    def _workspace(self, rows: int) -> _Workspace:
        if self._work is None or self._work.rows != rows:
            self._work = _Workspace(self.layer_sizes, rows)
        return self._work

    def _inputs(self, x: np.ndarray, t) -> np.ndarray:
        """The batch ``[x, t]`` in the workspace's (n, d + 1) input array."""
        inputs = self._workspace(len(x)).inputs
        inputs[:, :-1] = x
        inputs[:, -1] = t
        return inputs

    def _forward(self, inputs: np.ndarray) -> list:
        """All layer outputs, starting with the input batch itself.  The
        hidden layers write into the workspace; the last layer's output is
        a fresh array."""
        act, _ = _ACTIVATIONS[self.activation]
        hidden = self._workspace(len(inputs)).hidden
        outs = [inputs]
        h = inputs
        last = len(self.weights) - 1
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = np.matmul(h, w.T, out=hidden[l] if l < last else None)
            h += b  # numpy's 64 KiB broadcast buffer stays: a per-row loop is ~12x slower
            if l < last:
                act(h)
            outs.append(h)
        return outs

    def predict(self, x_t, t) -> np.ndarray:
        """Deterministic forward pass; ``x_t`` is (d,) or (n, d), ``t`` a
        scalar or (n,) array.  The output is a fresh array, so a later call
        never overwrites it."""
        x = as_state(x_t, "x_t", dim=self.state_dim)
        if x.ndim > 2:
            raise ValueError(f"x_t must be (d,) or (n, d), got shape {x.shape}")
        single = x.ndim == 1
        xb = x[None, :] if single else x
        t_arr = as_numbers(t, "t")
        if not np.all(np.isfinite(t_arr)):
            raise ValueError("t must be finite")
        if t_arr.ndim != 0 and t_arr.shape != (xb.shape[0],):
            raise ValueError("t must be a scalar or one entry per batch row")
        out = self._forward(self._inputs(xb, t_arr))[-1]
        return out[0] if single else out

    # the Estimator protocol
    __call__ = predict


def loss_and_gradients(model: MlpRegressor, inputs, targets, p_norm: int, out=None):
    """Empirical p-norm loss and its gradients by backprop.

    ``inputs`` is the already-assembled (n, d + 1) batch, ``targets`` the
    (n, d) clean signals.  The loss is the mean of |diff|^p over all n * d
    elements; for p = 1 the subgradient at 0 is taken as 0.  Returns
    ``(loss, grads_w, grads_b)`` with gradients shaped like the parameters.
    The gradients are written into ``out``, a list of arrays shaped like
    ``weights + biases``, when given, and into fresh arrays otherwise; the
    intermediate activations and deltas live in the model's workspace.
    """
    if p_norm not in (1, 2):
        raise ValueError("p_norm must be 1 or 2")
    inputs = np.asarray(inputs, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if (inputs.ndim != 2 or inputs.shape[1] != model.layer_sizes[0]
            or targets.shape != (len(inputs), model.state_dim)):
        raise ValueError("inputs and targets must be matching (n, d + 1) and (n, d) batches")
    outs = model._forward(inputs)
    diff = outs[-1]  # the fresh output becomes the residual, then the delta
    diff -= targets
    n_elems = diff.size
    if p_norm == 2:
        loss = float(np.mean(diff * diff))
        delta = np.multiply(2.0 / n_elems, diff, out=diff)
    else:
        loss = float(np.mean(np.abs(diff)))
        delta = np.sign(diff, out=diff)
        delta /= n_elems
    _, act_deriv = _ACTIVATIONS[model.activation]
    work = model._workspace(len(inputs))
    if work.deltas is None:
        work.deltas = [np.empty_like(h) for h in work.hidden]
    n_layers = len(model.weights)
    if out is None:
        out = [np.empty(p.shape) for p in model.weights + model.biases]
    grads_w, grads_b = out[:n_layers], out[n_layers:]
    for l in range(n_layers - 1, -1, -1):
        np.matmul(delta.T, outs[l], out=grads_w[l])
        np.sum(delta, axis=0, out=grads_b[l])
        if l > 0:
            deriv = act_deriv(outs[l])  # outs[l] is not read again
            delta = np.matmul(delta, model.weights[l], out=work.deltas[l - 1])
            delta *= deriv
    return loss, grads_w, grads_b


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for :func:`train`.

    ``seed``, an integer in [0, 2**64), drives everything the trainer draws itself
    (times and forward noise); the pair stream's randomness belongs to
    whoever built the generator.  Step k draws from ``derive_rng(seed, k)``,
    whose entropy tuple (seed, k) is what a divergence diagnostic reports.
    """

    p_norm: int = 1
    learning_rate: float = 1e-3
    batch_size: int = 128
    steps: int = 1000
    time_dist: TimeDistribution = TimeDistribution("linear_0")
    schedule: NoiseSchedule = ConstantSchedule(0.0)
    seed: int = 0

    def __post_init__(self):
        if as_count(self.p_norm, "p_norm") not in (1, 2):
            raise ValueError("p_norm must be 1 or 2")
        object.__setattr__(self, "learning_rate",
                           as_scalar(self.learning_rate, "learning_rate", positive=True))
        as_count(self.batch_size, "batch_size")
        as_count(self.steps, "steps", 0)
        as_count(self.seed, "seed", 0, _SEED_MAX)


def train(model: MlpRegressor, data, config: TrainConfig):
    """Run ``config.steps`` optimizer steps; returns (trained model, losses).

    ``data`` is an iterable of ``(x, y)`` arrays of shape (rows, d), such as
    a world's ``pair_stream``; each step takes the next ``config.batch_size``
    rows across chunks.  The input model is left untouched (so zero steps
    returns an identical copy and an empty loss curve).  Raises
    :class:`DivergenceError`, with ``t`` None, the moment a drawn pair or
    the batch loss goes non-finite.  Each step writes its batch, gradients
    and Adam temporaries into arrays kept across steps.  The weights and
    biases are views of one flat buffer and the gradients of another, so
    Adam, whose operations are all elementwise, updates every parameter at
    once with the bits it would give array by array.  Under the zero
    schedule ``ConstantSchedule(0.0)`` no step computes a noise std, which
    would be zero.  The returned model owns its parameters and carries no
    scratch arrays, like one that has been pickled.
    """
    trained = model.copy()
    n_layers = len(trained.weights)
    shapes = [p.shape for p in trained.weights + trained.biases]
    offsets = np.cumsum([np.prod(shape, dtype=int) for shape in shapes])[:-1]

    def views(flat):
        return [part.reshape(shape) for part, shape in zip(np.split(flat, offsets), shapes)]

    params = np.concatenate([p.ravel() for p in trained.weights + trained.biases])
    layers = views(params)
    trained.weights, trained.biases = layers[:n_layers], layers[n_layers:]
    grad = np.empty_like(params)
    grads = views(grad)
    moment1, moment2 = np.zeros_like(params), np.zeros_like(params)
    u, v = np.empty_like(params), np.empty_like(params)
    beta1, beta2, adam_eps = 0.9, 0.999, 1e-8
    noisy = config.schedule != ConstantSchedule(0.0)
    losses = np.empty(config.steps)
    chunks = iter(data)
    size, dim = config.batch_size, trained.state_dim
    left_x = left_y = np.empty((0, dim))  # rows drawn but not yet trained on
    for step in range(config.steps):
        rng = derive_rng(config.seed, step)
        while len(left_x) < size:
            chunk = next(chunks, None)
            if chunk is None:
                raise ValueError(f"pair stream exhausted at step {step}: got "
                                 f"{len(left_x)} of {size} samples")
            cx, cy = np.asarray(chunk[0], np.float64), np.asarray(chunk[1], np.float64)
            if cx.shape != cy.shape or cx.shape[1:] != (dim,):
                raise ValueError(f"pair chunks {cx.shape}, {cy.shape} need shape (rows, {dim})")
            _check_finite(cx, step, None, "training pair")
            _check_finite(cy, step, None, "training pair")
            left_x, left_y = np.concatenate([left_x, cx]), np.concatenate([left_y, cy])
        x, left_x = left_x[:size], left_x[size:]
        y, left_y = left_y[:size], left_y[size:]
        t = sample_times(config.time_dist, rng, size=x.shape[0])
        x_t = forward_interpolate(x, y, t)
        if noisy:
            std = forward_noise_std(config.schedule, t)
            if np.any(std > 0.0):
                x_t = x_t + std[:, None] * rng.standard_normal(x_t.shape)
        inputs = trained._inputs(x_t, t)
        loss, _, _ = loss_and_gradients(trained, inputs, x, config.p_norm, out=grads)
        _check_finite(loss, step, None, f"loss (batch seed entropy {(config.seed, step)})")
        correction1 = 1.0 - beta1 ** (step + 1)
        correction2 = 1.0 - beta2 ** (step + 1)
        moment1 *= beta1
        moment1 += np.multiply(1.0 - beta1, grad, out=u)
        moment2 *= beta2
        moment2 += np.multiply(1.0 - beta2, np.multiply(grad, grad, out=u), out=u)
        # params -= learning_rate * (m1 / correction1) / (sqrt(m2 / correction2) + adam_eps)
        np.multiply(config.learning_rate, np.divide(moment1, correction1, out=u), out=u)
        np.sqrt(np.divide(moment2, correction2, out=v), out=v)
        v += adam_eps
        u /= v
        params -= u
        losses[step] = loss
    if config.steps > 0:
        trained.training_seed = config.seed
    trained.weights = [w.copy() for w in trained.weights]  # off the flat buffer
    trained.biases = [b.copy() for b in trained.biases]
    trained._work = None  # the batch-row workspace; predict makes its own
    return trained, losses


# ---- checkpoint format ---- #
#
# Binary, little-endian throughout:
#
#   offset size  field
#   0      8     magic "RSTEPMLP"
#   8      4     format version, uint32 (currently 1)
#   12     4     L = number of layer sizes, uint32
#   16     4*L   layer sizes, uint32 each
#   .      4     activation name byte length A, uint32
#   .      A     activation name, UTF-8
#   .      1     has_seed flag, uint8 (0 or 1)
#   .      8     training seed, uint64 (0 when has_seed = 0)
#   .      -     per layer l = 0 .. L-2: weight matrix (sizes[l+1] x
#                sizes[l]) row-major float64, then bias vector
#                (sizes[l+1]) float64
#
# No trailing bytes are allowed.

_CHECKPOINT_MAGIC = b"RSTEPMLP"
_CHECKPOINT_VERSION = 1
_SEED_MAX = 2**64 - 1  # the training seed's uint64


def save_checkpoint(model: MlpRegressor, path) -> None:
    """Write ``model`` to ``path`` in the format documented above."""
    parts = [_CHECKPOINT_MAGIC, struct.pack("<I", _CHECKPOINT_VERSION)]
    parts.append(struct.pack("<I", len(model.layer_sizes)))
    parts.append(struct.pack(f"<{len(model.layer_sizes)}I", *model.layer_sizes))
    name = model.activation.encode("utf-8")
    parts.append(struct.pack("<I", len(name)))
    parts.append(name)
    has_seed = model.training_seed is not None
    parts.append(struct.pack("<B", int(has_seed)))
    parts.append(struct.pack("<Q", model.training_seed if has_seed else 0))
    for w, b in zip(model.weights, model.biases):
        parts.append(np.ascontiguousarray(w, dtype="<f8").tobytes())
        parts.append(np.ascontiguousarray(b, dtype="<f8").tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))


def load_checkpoint(path) -> MlpRegressor:
    """Read a model written by :func:`save_checkpoint`, validating layout."""
    with open(path, "rb") as fh:
        blob = fh.read()

    def take(n, what):
        nonlocal offset
        if offset + n > len(blob):
            raise ValueError(f"checkpoint truncated while reading {what}")
        chunk = blob[offset:offset + n]
        offset += n
        return chunk

    offset = 0
    if take(8, "magic") != _CHECKPOINT_MAGIC:
        raise ValueError("not a model checkpoint (bad magic)")
    (version,) = struct.unpack("<I", take(4, "version"))
    if version != _CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    (n_sizes,) = struct.unpack("<I", take(4, "size count"))
    if n_sizes < 2 or n_sizes > 64:
        raise ValueError(f"implausible layer count {n_sizes}")
    sizes = struct.unpack(f"<{n_sizes}I", take(4 * n_sizes, "layer sizes"))
    (name_len,) = struct.unpack("<I", take(4, "activation length"))
    activation = take(name_len, "activation name").decode("utf-8")
    (has_seed,) = struct.unpack("<B", take(1, "seed flag"))
    if has_seed > 1:
        raise ValueError(f"seed flag must be 0 or 1, got {has_seed}")
    (seed,) = struct.unpack("<Q", take(8, "training seed"))
    if not has_seed and seed:
        raise ValueError("nonzero training seed under seed flag 0")
    weights = []
    biases = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        w = np.frombuffer(take(8 * fan_in * fan_out, "weights"), dtype="<f8")
        weights.append(w.reshape(fan_out, fan_in).astype(np.float64))
        b = np.frombuffer(take(8 * fan_out, "biases"), dtype="<f8")
        biases.append(b.astype(np.float64))
    if offset != len(blob):
        raise ValueError(f"{len(blob) - offset} trailing bytes in checkpoint")
    return MlpRegressor(
        layer_sizes=sizes,
        weights=weights,
        biases=biases,
        activation=activation,
        training_seed=int(seed) if has_seed else None,
    )
