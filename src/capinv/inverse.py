"""Inverse prediction: from a requested plate separation back to a field.

An affine regression ties each search space (full field space, or a
generative model's latent space) to the separation d. Prediction then
runs fixed-step gradient descent on the squared scalar residual
(x.phi + c - d)^2 from a noisy initial estimate, and the latent result is
decoded back to a field.

The descent loop works coefficient by coefficient in plain Python on
purpose: its per-iteration cost is proportional to the search-space
dimension (441 fullspace vs 20 latent), which is exactly the cost
structure the timing benchmark measures. numpy calls at these sizes are
dominated by fixed per-call overhead and would flatten that ratio. phi and
the start enter the loop through tolist(), which gives in one call the
Python floats float() gives per value, so the bits are the same.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import Dataset, FieldGrid
from .generative import GenerativeModel, encode, decode
from .textio import _header, _named, _reader, _reading, _vector, _writing

__all__ = [
    "RegressionError",
    "InversionError",
    "SPACES",
    "UNTAGGED",
    "RegressionModel",
    "InverseOptions",
    "InversePipeline",
    "fit_regression",
    "add_awgn",
    "inverse_predict",
    "fit_pipeline",
    "recover_field",
    "save_pipeline",
    "load_pipeline",
]

SPACES = ("fullspace", "latent")
# The optimizer_tag of a pipeline that names no training optimizer, such as
# every fullspace fit; .reg headers and sweep exports write it as is.
UNTAGGED = "-"
# Refused in an optimizer_tag: the .reg header splits on ' ', a field block's meta line on ','.
_TAG_REFUSED = (" ", ",", "\n", "\r")


class RegressionError(ValueError):
    """The affine fit is ill-posed for the given samples."""


class InversionError(RuntimeError):
    """Inverse prediction failed; carries the final scalar residual."""

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations

    def __reduce__(self):
        return type(self), (self.args[0], self.residual, self.iterations)


@dataclass
class RegressionModel:
    """Affine map d_hat = x.phi + intercept in one search space."""

    space: str
    phi: np.ndarray
    intercept: float
    fit_residual: float

    def __post_init__(self) -> None:
        if self.space not in SPACES:
            raise ValueError(f"unknown space {self.space!r}, expected one of {SPACES}")
        self.phi = np.asarray(self.phi, dtype=np.float64)
        if self.phi.ndim != 1:
            raise ValueError("phi must be a 1-D vector")
        if not np.all(np.isfinite(self.phi)):
            raise ValueError("phi has non-finite entries")
        if not (math.isfinite(self.intercept) and math.isfinite(self.fit_residual)):
            raise ValueError(f"intercept {self.intercept!r} and fit residual {self.fit_residual!r} must be finite")
        if self.fit_residual < 0.0:
            raise ValueError(f"fit_residual must be nonnegative, got {self.fit_residual!r}")


def fit_regression(samples, targets, space: str) -> RegressionModel:
    """Least-squares affine fit of targets d against sample vectors.

    The fit is centered: the coefficient vector solves the mean-removed
    system (minimum-norm solution via SVD when underdetermined) and the
    intercept absorbs the means, so the intercept is never penalized.
    With constant targets this yields phi = 0 and intercept = mean(d).

    Raises RegressionError when fewer than two samples are given, or when
    all samples are identical while the targets vary (no affine map can
    separate them).
    """
    x = np.asarray(samples, dtype=np.float64)
    d = np.asarray(targets, dtype=np.float64)
    if x.ndim != 2:
        raise RegressionError("samples must form a 2-D matrix")
    if d.ndim != 1 or d.shape[0] != x.shape[0]:
        raise RegressionError(f"{d.shape} targets for {x.shape[0]} samples")
    if x.shape[0] < 2:
        raise RegressionError(f"need at least 2 samples to fit, got {x.shape[0]}")
    x_mean = x.mean(axis=0)
    d_mean = d.mean()
    xc = x - x_mean
    dc = d - d_mean
    if not np.any(xc):
        if np.any(dc):
            raise RegressionError("rank collapse: samples are all identical but targets vary")
        phi = np.zeros(x.shape[1])
    else:
        phi, *_ = np.linalg.lstsq(xc, dc, rcond=None)
    intercept = float(d_mean - x_mean @ phi)
    resid = x @ phi + intercept - d
    return RegressionModel(
        space=space,
        phi=phi,
        intercept=intercept,
        fit_residual=float(np.sqrt(np.mean(resid * resid))),
    )


def add_awgn(x, e: float, seed: int) -> np.ndarray:
    """x plus white Gaussian noise of variance e, from a fresh seeded generator.

    e = 0 returns an exact copy without consuming any randomness.
    """
    if not (math.isfinite(e) and e >= 0.0):
        raise ValueError(f"noise variance must be finite and nonnegative, got {e}")
    x = np.asarray(x, dtype=np.float64)
    if e == 0.0:
        return x.copy()
    rng = np.random.default_rng(seed)
    return x + rng.normal(0.0, math.sqrt(e), x.shape)


@dataclass(frozen=True)
class InverseOptions:
    """Stop once |residual| < residual_tol; fail after max_iterations updates."""

    residual_tol: float = 1e-8
    max_iterations: int = 10_000

    def __post_init__(self) -> None:
        if not (math.isfinite(self.residual_tol) and self.residual_tol > 0.0):
            raise ValueError(f"residual_tol must be finite and positive, got {self.residual_tol}")
        if self.max_iterations < 0:
            raise ValueError(f"max_iterations must be nonnegative, got {self.max_iterations}")


def inverse_predict(
    model: RegressionModel, target_d: float, initial_estimate, options: InverseOptions = InverseOptions()
) -> np.ndarray:
    """Gradient descent on (x.phi + c - target_d)^2 from the initial estimate.

    target_d must lie in [0, 1] and the estimate must be finite and shaped
    like phi. Stops once |x.phi + c - target_d| < residual_tol; an initial
    estimate that already satisfies the target is returned as a copy.
    Raises InversionError carrying the final residual when max_iterations
    updates are not enough, and immediately when phi is all zero while the
    intercept misses the target (no update can change the prediction).
    """
    if not (0.0 <= target_d <= 1.0):
        raise ValueError(f"target separation must lie in [0, 1], got {target_d}")
    x_arr = np.asarray(initial_estimate, dtype=np.float64)
    if x_arr.shape != model.phi.shape:
        raise ValueError(f"estimate shape {x_arr.shape} does not match coefficients {model.phi.shape}")
    if not np.isfinite(x_arr).all():
        raise ValueError("initial estimate has non-finite entries")
    phi = model.phi.tolist()
    x = x_arr.tolist()
    pp = 0.0
    for p in phi:
        pp += p * p
    offset = model.intercept - target_d
    if pp == 0.0:
        if abs(offset) < options.residual_tol:
            return x_arr.copy()
        raise InversionError(
            f"infeasible: zero coefficient vector and intercept {model.intercept!r} "
            f"cannot reach target {target_d!r}",
            residual=abs(offset),
            iterations=0,
        )
    step = 0.5 / pp

    r = offset
    for xi, p in zip(x, phi):
        r += xi * p
    iterations = 0
    while abs(r) >= options.residual_tol:
        if iterations >= options.max_iterations:
            raise InversionError(
                f"no convergence after {iterations} iterations (|residual| = {abs(r):.3e})",
                residual=abs(r),
                iterations=iterations,
            )
        s = 2.0 * step * r
        r = offset
        for i, p in enumerate(phi):
            xi = x[i] - s * p
            x[i] = xi
            r += xi * p
        iterations += 1
    return np.asarray(x, dtype=np.float64)


@dataclass
class InversePipeline:
    """Everything one approach needs to turn a target d into a field.

    anchor is the clean initial estimate in the search space: the training
    field nearest d = 0.5 for fullspace, that same field's encoding for
    latent. anchor_field keeps the underlying field either way so noise
    can alternatively be applied before encoding. Construction checks
    every width against grid_n and phi, that a latent regression comes with
    its model and the model's widths match both, that anchor_d is a
    separation in [0, 1], and that optimizer_tag holds no separator of the
    header lines it is written into. The approach is the regression's
    search space.
    """

    regression: RegressionModel
    anchor_d: float
    anchor: np.ndarray
    anchor_field: np.ndarray
    grid_n: int
    model: GenerativeModel | None = None
    optimizer_tag: str = UNTAGGED

    @property
    def approach(self) -> str:
        return self.regression.space

    def __post_init__(self) -> None:
        self.anchor = np.asarray(self.anchor, dtype=np.float64)
        self.anchor_field = np.asarray(self.anchor_field, dtype=np.float64)
        if self.grid_n < 1:
            raise ValueError(f"grid side must be at least 1, got grid={self.grid_n}")
        if not 0.0 <= self.anchor_d <= 1.0:
            raise ValueError(f"anchor_d must be finite and lie in [0, 1], got {self.anchor_d!r}")
        for bad in _TAG_REFUSED:
            if bad in self.optimizer_tag:
                raise ValueError(f"optimizer_tag must not hold {bad!r}, got {self.optimizer_tag!r}")
        cells = self.grid_n * self.grid_n
        width = self.regression.phi.shape[0]
        if self.anchor_field.shape != (cells,):
            raise ValueError(f"anchor_field has shape {self.anchor_field.shape}, expected ({cells},) for the grid")
        if self.anchor.shape != (width,):
            raise ValueError(f"anchor has shape {self.anchor.shape}, expected ({width},) like phi")
        if self.approach == "fullspace":
            if width != cells:
                raise ValueError(f"fullspace phi has {width} entries, expected {cells} for grid {self.grid_n}")
        elif self.model is None:
            raise ValueError("a latent regression needs the generative model it was fitted with")
        elif (self.model.input_dim, self.model.latent_dim) != (cells, width):
            raise ValueError(
                f"model widths {self.model.input_dim}->{self.model.latent_dim} do not match "
                f"grid {self.grid_n} ({cells} cells) and phi width {width}"
            )


def fit_pipeline(
    approach: str,
    dataset: Dataset,
    model: GenerativeModel | None = None,
    optimizer_tag: str = UNTAGGED,
) -> InversePipeline:
    """Fit the affine regression for one approach on a training dataset.

    Latent features are the deterministic encoder means. The anchor
    sample is the training record whose d is nearest 0.5.
    """
    if approach not in SPACES:
        raise ValueError(f"unknown approach {approach!r}, expected one of {SPACES}")
    if len(dataset) == 0:
        raise ValueError("cannot fit a pipeline on an empty dataset")
    anchor_idx = int(np.argmin(np.abs(dataset.d - 0.5)))
    anchor_field = dataset.fields[anchor_idx].copy()
    if approach == "fullspace":
        features = dataset.fields
        anchor = anchor_field.copy()
    else:
        if model is None:
            raise ValueError("the latent approach requires a generative model")
        features = encode(model, dataset.fields)
        anchor = features[anchor_idx].copy()
    regression = fit_regression(features, dataset.d, space=approach)
    return InversePipeline(
        regression=regression,
        anchor_d=float(dataset.d[anchor_idx]),
        anchor=anchor,
        anchor_field=anchor_field,
        grid_n=dataset.grid_n,
        model=model,
        optimizer_tag=optimizer_tag,
    )


def recover_field(
    pipeline: InversePipeline,
    target_d: float,
    noise_e: float,
    seed: int,
    corrupt_field_first: bool = False,
) -> FieldGrid:
    """Predict the (normalized) coarse field for target_d under noise.

    The search starts from the anchor plus noise of variance noise_e, in the
    approach's own search space. With corrupt_field_first a latent approach
    instead starts from the encoding of the noisy anchor field; fullspace
    gives the same field either way. A latent solution is decoded. noise_e =
    0 keeps everything deterministic.
    """
    return _solve_from(pipeline, target_d, _noisy_start(pipeline, noise_e, seed, corrupt_field_first))


def _noisy_start(pipeline: InversePipeline, noise_e: float, seed: int, corrupt_field_first: bool) -> np.ndarray:
    """recover_field's initial estimate. It depends on the pipeline, noise_e,
    seed and corrupt_field_first only, and no later step writes to it, so a
    caller may share one start across target separations."""
    if pipeline.approach == "latent" and corrupt_field_first:
        return encode(pipeline.model, add_awgn(pipeline.anchor_field, noise_e, seed))
    return add_awgn(pipeline.anchor, noise_e, seed)


def _solve_from(pipeline: InversePipeline, target_d: float, start: np.ndarray) -> FieldGrid:
    """recover_field's search from a drawn start, decoded for latent."""
    values = inverse_predict(pipeline.regression, target_d, start)
    if pipeline.approach == "latent":
        values = decode(pipeline.model, values)
    side = pipeline.grid_n
    return FieldGrid(values=values.reshape(side, side), units="normalized")


def save_pipeline(pipeline: InversePipeline, path) -> None:
    """Text dump of the regression artifact: space tag, coefficients,
    intercept, fit residual, plus the anchor records that make `invert`
    self-contained. The generative model is stored separately."""
    reg = pipeline.regression
    head = {"space": pipeline.approach, "grid": pipeline.grid_n, "optimizer": pipeline.optimizer_tag}
    scalars = {"intercept": reg.intercept, "fit_residual": reg.fit_residual, "anchor_d": pipeline.anchor_d}
    with _writing(path) as fh:
        fh.write(_header("regression", head) + "\n")
        fh.writelines(_header("", {key: float(value)}) + "\n" for key, value in scalars.items())
        for tag, vec in (("phi", reg.phi), ("anchor", pipeline.anchor), ("anchor_field", pipeline.anchor_field)):
            fh.write(_vector(tag, vec))


def _read_space(path) -> str:
    """The search space in the header of a save_pipeline artifact, read
    without the rest: a latent artifact does not load without its model, so
    a caller that asked for another approach checks this first."""
    with _named(path), open(path, "r", encoding="ascii") as fh:
        return _reader(fh, "regression artifact").header("regression", {"space": str})["space"]


def load_pipeline(path, model: GenerativeModel | None = None) -> InversePipeline:
    """Read a save_pipeline artifact. A latent artifact loads only with model,
    the generative model it was fitted with."""
    with _reading(path, "regression artifact") as lines:
        head = lines.header("regression", {"space": str, "grid": int})
        scalar = {key: lines.header("", {key: float})[key] for key in ("intercept", "fit_residual", "anchor_d")}
        phi = lines.vector("phi")
        return InversePipeline(
            regression=RegressionModel(head["space"], phi, scalar["intercept"], scalar["fit_residual"]),
            anchor_d=scalar["anchor_d"],
            anchor=lines.vector("anchor"),
            anchor_field=lines.vector("anchor_field"),
            grid_n=head["grid"],
            model=model,
            optimizer_tag=head.get("optimizer", UNTAGGED),
        )
