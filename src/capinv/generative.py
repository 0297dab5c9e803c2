"""Autoencoding generative models over flattened capacitor fields.

Both kinds pair a tanh-hidden encoder with a tanh-output decoder. The
plain autoencoder ("ae") uses a linear code head; the variational kind
("vae") doubles the head into mean and log-variance, draws one noise
vector per sample per step, and adds the closed-form Gaussian divergence
penalty to the reconstruction objective. Training losses are summed over
output coordinates and averaged over the minibatch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network import (
    Mlp,
    TrainingError,
    backward,
    forward,
    make_optimizer,
    minibatch_stream,
    single_blas_thread,
)
from .textio import _header, _reading, _row, _text, _vector, _writing

__all__ = [
    "KINDS",
    "GenerativeModel",
    "GenerativeTrainConfig",
    "TrainHistory",
    "build_model",
    "encode",
    "decode",
    "rec_loss",
    "kld_loss",
    "train_model",
    "train_generative",
    "save_model",
    "load_model",
]

KINDS = ("ae", "vae")


@dataclass
class GenerativeModel:
    kind: str
    encoder: Mlp
    decoder: Mlp
    latent_dim: int

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}, expected one of {KINDS}")
        if self.latent_dim < 1:
            raise ValueError(f"latent_dim must be positive, got {self.latent_dim}")
        head = self.latent_dim if self.kind == "ae" else 2 * self.latent_dim
        if self.encoder.layer_sizes[-1] != head:
            raise ValueError(
                f"{self.kind} encoder head width {self.encoder.layer_sizes[-1]} != expected {head}"
            )
        if self.decoder.layer_sizes[0] != self.latent_dim:
            raise ValueError(f"decoder input width {self.decoder.layer_sizes[0]} != latent_dim {self.latent_dim}")
        if self.decoder.layer_sizes[-1] != self.encoder.layer_sizes[0]:
            raise ValueError("decoder output width does not match encoder input width")

    @property
    def input_dim(self) -> int:
        return self.encoder.layer_sizes[0]


def build_model(kind: str, input_dim: int, hidden_dim: int, latent_dim: int, rng) -> GenerativeModel:
    """Fresh model with Glorot-uniform weights drawn from rng, encoder first."""
    head = latent_dim if kind == "ae" else 2 * latent_dim
    encoder = Mlp.init((input_dim, hidden_dim, head), ("tanh", "linear"), rng)
    decoder = Mlp.init((latent_dim, hidden_dim, input_dim), ("tanh", "tanh"), rng)
    return GenerativeModel(kind=kind, encoder=encoder, decoder=decoder, latent_dim=latent_dim)


def _as_batch(arr, width: int, what: str):
    a = np.asarray(arr, dtype=np.float64)
    single = a.ndim == 1
    if single:
        a = a[None, :]
    if a.ndim != 2 or a.shape[1] != width:
        raise ValueError(f"{what} must have width {width}, got shape {np.asarray(arr).shape}")
    return a, single


def encode(model: GenerativeModel, v):
    """The code the inverse searches: the ae code, or the vae mean.

    No sampling happens here; training draws its stochastic codes itself.
    Accepts a single vector or a batch and mirrors the input's rank.
    """
    batch, single = _as_batch(v, model.input_dim, "field vector")
    out = forward(model.encoder, batch)[-1][:, : model.latent_dim]
    return out[0] if single else out


def decode(model: GenerativeModel, z):
    """Map latent codes to normalized fields in [-1, 1], mirroring the input's rank."""
    batch, single = _as_batch(z, model.latent_dim, "latent vector")
    out = forward(model.decoder, batch)[-1]
    return out[0] if single else out


def rec_loss(v, v_rec) -> float:
    """Half the summed squared reconstruction error."""
    v = np.asarray(v, dtype=np.float64)
    v_rec = np.asarray(v_rec, dtype=np.float64)
    if v.shape != v_rec.shape:
        raise ValueError(f"shape mismatch: {v.shape} vs {v_rec.shape}")
    diff = v - v_rec
    return 0.5 * float(np.sum(diff * diff))


def kld_loss(mu, sigma) -> float:
    """Gaussian divergence from the unit prior: 0.5*sum(sigma^2 + mu^2 - ln sigma^2 - 1).

    Zero exactly at (mu, sigma) = (0, 1), positive everywhere else.
    """
    mu = np.asarray(mu, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    if mu.shape != sigma.shape:
        raise ValueError(f"shape mismatch: mu {mu.shape} vs sigma {sigma.shape}")
    if np.any(sigma <= 0.0):
        raise ValueError("sigma must be positive elementwise")
    s2 = sigma * sigma
    return 0.5 * float(np.sum(s2 + mu * mu - np.log(s2) - 1.0))


def _parameters(model: GenerativeModel) -> list:
    """Every parameter array of the model, in the order of the steps' gradients."""
    return [*model.encoder.weights, *model.encoder.biases, *model.decoder.weights, *model.decoder.biases]


def _split_grads(model: GenerativeModel, grads):
    """(grads, encoder weights', encoder biases', decoder weights', decoder
    biases' gradient arrays): the list given, or new arrays where it is None."""
    if grads is None:
        grads = [np.empty(p.shape) for p in _parameters(model)]
    e, d = len(model.encoder.weights), len(model.decoder.weights)
    return grads, grads[:e], grads[e : 2 * e], grads[2 * e : 2 * e + d], grads[2 * e + d :]


def _ae_step(model: GenerativeModel, batch: np.ndarray, grads=None):
    """(rec, 0.0, gradients) of one minibatch, the gradients in _parameters
    order, written into grads where given."""
    grads, ew, eb, dw, db = _split_grads(model, grads)
    rows = batch.shape[0]
    enc_cache = forward(model.encoder, batch)
    dec_cache = forward(model.decoder, enc_cache[-1])
    diff = dec_cache[-1] - batch
    rec = 0.5 * float(np.sum(diff * diff)) / rows
    diff /= rows  # the output gradient
    g_code = backward(model.decoder, dec_cache, diff, out=(dw, db))[2]
    backward(model.encoder, enc_cache, g_code, out=(ew, eb), input_grad=False)
    return rec, 0.0, grads


def _vae_step(model: GenerativeModel, batch: np.ndarray, eps: np.ndarray, beta: float, grads=None):
    """(rec, kld, gradients) of one minibatch under noise eps, like _ae_step."""
    grads, ew, eb, dw, db = _split_grads(model, grads)
    rows = batch.shape[0]
    z = model.latent_dim
    enc_cache = forward(model.encoder, batch)
    heads = enc_cache[-1]
    mu = heads[:, :z]
    lv = heads[:, z:]
    sigma = np.exp(0.5 * lv)
    code = mu + sigma * eps
    dec_cache = forward(model.decoder, code)
    diff = dec_cache[-1] - batch

    s2 = sigma * sigma
    rec = 0.5 * float(np.sum(diff * diff)) / rows
    kld = 0.5 * float(np.sum(s2 + mu * mu - lv - 1.0)) / rows

    diff /= rows  # the output gradient
    g_code = backward(model.decoder, dec_cache, diff, out=(dw, db))[2]
    # d code/d lv = sigma*eps/2; divergence terms: d/d mu = mu, d/d lv = (sigma^2 - 1)/2.
    g_mu = g_code + beta * mu / rows
    g_lv = g_code * (0.5 * sigma * eps) + beta * 0.5 * (s2 - 1.0) / rows
    backward(model.encoder, enc_cache, np.concatenate([g_mu, g_lv], axis=1), out=(ew, eb), input_grad=False)
    return rec, kld, grads


@dataclass
class GenerativeTrainConfig:
    """Knobs for train_model / train_generative.

    optimizer names a key of network.DEFAULT_LEARNING_RATES, and
    learning_rate None picks that optimizer's paired rate there. A bad
    value fails at construction with a message that names its field.
    """

    optimizer: str = "momentum"
    learning_rate: float | None = None
    max_iterations: int = 20_000
    minibatch_size: int = 20
    beta: float = 1.0
    latent_dim: int = 20
    hidden_dim: int = 200

    def __post_init__(self) -> None:
        make_optimizer(self.optimizer, self.learning_rate)  # refuses a bad name or rate
        for name in ("latent_dim", "hidden_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.max_iterations < 0:
            raise ValueError(f"max_iterations must be nonnegative, got {self.max_iterations}")
        if self.minibatch_size < 1:
            raise ValueError(f"minibatch_size must be positive, got {self.minibatch_size}")
        if not (math.isfinite(self.beta) and self.beta >= 0.0):
            raise ValueError(f"beta must be finite and nonnegative, got {self.beta}")


@dataclass
class TrainHistory:
    """Per-iteration loss traces; total = rec + beta*kld (kld is all zero for ae)."""

    total: np.ndarray
    rec: np.ndarray
    kld: np.ndarray


def train_model(model: GenerativeModel, fields, config: GenerativeTrainConfig, rng) -> TrainHistory:
    """Train an existing model in place on (samples, input_dim) fields.

    Every random element (minibatch order, vae noise) draws from the one
    rng handed in, in a fixed order: batch indices first, then the noise
    for that step. The steps run with BLAS on one thread (see
    single_blas_thread), so the trained bits do not depend on the BLAS
    thread count. Non-finite losses or gradients abort with TrainingError.
    """
    data = np.asarray(fields, dtype=np.float64)
    if data.ndim != 2 or data.shape[1] != model.input_dim:
        raise ValueError(f"training fields must have shape (samples, {model.input_dim}), got {data.shape}")
    if len(data) == 0:
        raise ValueError("training set is empty")

    params = _parameters(model)
    grads = None  # the first step makes the gradient arrays; later steps write into them
    optimizer = make_optimizer(config.optimizer, config.learning_rate)
    stream = minibatch_stream(len(data), config.minibatch_size, rng)
    iters = config.max_iterations
    total = np.empty(iters)
    rec_hist = np.empty(iters)
    kld_hist = np.empty(iters)
    with single_blas_thread():
        for it in range(iters):
            batch = data[next(stream)]
            if model.kind == "ae":
                rec, kld, grads = _ae_step(model, batch, grads)
            else:
                eps = rng.standard_normal((batch.shape[0], model.latent_dim))
                rec, kld, grads = _vae_step(model, batch, eps, config.beta, grads)
            loss = rec + config.beta * kld
            if not np.isfinite(loss):
                raise TrainingError(f"non-finite loss at iteration {it}")
            optimizer.step(params, grads)
            total[it] = loss
            rec_hist[it] = rec
            kld_hist[it] = kld
    return TrainHistory(total=total, rec=rec_hist, kld=kld_hist)


def train_generative(kind: str, fields, config: GenerativeTrainConfig | None = None, seed: int = 0):
    """Build and train a model from scratch; returns (model, history).

    Initialization, minibatch order and noise all flow from one generator
    seeded with seed, so a fixed seed reproduces the run bit for bit, at
    any BLAS thread count.
    """
    if config is None:
        config = GenerativeTrainConfig()
    data = np.asarray(fields, dtype=np.float64)
    if data.ndim != 2:
        raise ValueError("training fields must be 2-D")
    rng = np.random.default_rng(seed)
    model = build_model(kind, data.shape[1], config.hidden_dim, config.latent_dim, rng)
    history = train_model(model, data, config, rng)
    return model, history


def _read_mlp(lines) -> Mlp:
    """One network block of a model file, as save_model writes it."""
    head = lines.header("mlp", {"layers": lambda v: tuple(int(s) for s in v.split(":")),
                                "activations": lambda v: tuple(v.split(":"))})
    sizes = head["layers"]
    if len(sizes) < 2 or min(sizes) < 0:
        raise ValueError(f"mlp layers must be at least two nonnegative sizes, got {_text(sizes)}")
    if len(head["activations"]) != len(sizes) - 1:
        raise ValueError(f"mlp activations must give one name per layer ({len(sizes) - 1}), "
                         f"got {_text(head['activations'])!r}")
    weights = []
    biases = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        tag = lines.take("weights line")
        if tag != f"weights {fan_in} {fan_out}":
            raise ValueError(f"expected 'weights {fan_in} {fan_out}', got {tag[:80]!r}")
        weights.append(lines.rows(fan_in, fan_out, "weight row"))
        biases.append(lines.vector("biases"))
    return Mlp(weights=weights, biases=biases, activations=head["activations"])


def save_model(model: GenerativeModel, path) -> None:
    """Self-describing text dump: kind header, then per network a header
    and per layer the weight rows and the bias row."""
    with _writing(path) as fh:
        fh.write(_header("generative", {"kind": model.kind, "latent": model.latent_dim}) + "\n")
        for net in (model.encoder, model.decoder):
            fh.write(_header("mlp", {"layers": net.layer_sizes, "activations": net.activations}) + "\n")
            for w, b in zip(net.weights, net.biases):
                fh.write(f"weights {w.shape[0]} {w.shape[1]}\n")
                fh.writelines(_row(row) + "\n" for row in w)
                fh.write(_vector("biases", b))


def load_model(path) -> GenerativeModel:
    with _reading(path, "model file") as lines:
        head = lines.header("generative", {"kind": str, "latent": int})
        encoder = _read_mlp(lines)
        decoder = _read_mlp(lines)
        return GenerativeModel(kind=head["kind"], encoder=encoder, decoder=decoder, latent_dim=head["latent"])
