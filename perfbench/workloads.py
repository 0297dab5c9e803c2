"""The four benchmark workloads: generate, train, invert and sweep.

Each workload derives every input from the run's seed, builds what its
timed operations need in setup(), and then yields operations forever; the
main loop in run.py times run(op) and calls check(op, out) outside the timed
region. A check returns failure messages; an operation with any counts as
failed.

generate and train draw their inputs from one of VARIANTS seeded variants
(seed % VARIANTS), so that the dataset and model digests of every variant
can be pinned in pins.json.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import math
from pathlib import Path

import numpy as np

VARIANTS = 8
MINIBATCH = 20
# Train configurations of the paper: (label, model kind, optimizer).
CONFIGS = (("ae_momentum", "ae", "momentum"), ("vae_momentum", "vae", "momentum"), ("vae_adam", "vae", "adam"))
# The name each trained configuration goes by as an invert/sweep approach.
APPROACH = {"ae_momentum": "ae", "vae_momentum": "vae", "vae_adam": "vae_adam"}


def stratified(rng, count: int, lo: float = 0.1, hi: float = 0.9) -> np.ndarray:
    """One uniformly jittered separation in each of count equal strata of [lo, hi)."""
    width = (hi - lo) / count
    return lo + width * (np.arange(count) + rng.random(count))


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def dataset_digest(dataset) -> str:
    """Digest of the solved values, independent of the file format."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(dataset.d, dtype=np.float64).tobytes())
    h.update(np.ascontiguousarray(dataset.fields, dtype=np.float64).tobytes())
    return h.hexdigest()


def model_arrays(model):
    return [*model.encoder.weights, *model.encoder.biases, *model.decoder.weights, *model.decoder.biases]


def model_digest(model) -> str:
    h = hashlib.sha256(f"{model.kind} {model.latent_dim}".encode())
    for arr in model_arrays(model):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def models_equal(a, b) -> bool:
    if (a.kind, a.latent_dim, a.encoder.activations, a.decoder.activations) != (
        b.kind, b.latent_dim, b.encoder.activations, b.decoder.activations
    ):
        return False
    pa, pb = model_arrays(a), model_arrays(b)
    return len(pa) == len(pb) and all(
        x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes() for x, y in zip(pa, pb)
    )


def train_config(cv, fields, iterations: int, kind: str, optimizer: str, seed: int):
    """(model, history) of one paper configuration at 441-200-20, minibatch 20."""
    g = cv.generative
    config = g.GenerativeTrainConfig(optimizer=optimizer, max_iterations=iterations, minibatch_size=MINIBATCH)
    return g.train_generative(kind, fields, config, seed=seed)


def train_models(cv, fields, iterations: int, seeds: dict) -> dict:
    """label -> (model, history) for the three paper configurations."""
    return {label: train_config(cv, fields, iterations, kind, optimizer, seeds[label])
            for label, kind, optimizer in CONFIGS}


class Workload:
    name = ""
    unit = ""  # what one unit of throughput is
    min_ops = 1  # operations a run always completes
    block = 1  # a run ends only after a whole number of blocks of operations
    host_scaled = False  # times scaled to the reference loop's nominal speed (see run.py)
    layers: tuple = ()  # modules a traced run must attribute time to

    def __init__(self, cv, seed: int, pins: dict):
        self.cv = cv
        self.pins = pins.get(self.name, {})
        self.extras: dict[str, float] = {}  # per-layer metrics only the workload can see
        self.digests: dict[str, object] = {}

    def setup(self, workdir: Path) -> None:
        raise NotImplementedError

    def ops(self):
        raise NotImplementedError

    def run(self, op):
        raise NotImplementedError

    def check(self, op, out) -> list:
        raise NotImplementedError

    def units(self, op) -> int:
        return 1

    def op_class(self, op):
        """Operations of one class do the same work; throughput takes a median per class."""
        return None


class Generate(Workload):
    """Two SOR solves at fine_n=401 in one generate_dataset call, then a file round trip."""

    name = "generate"
    unit = "fields"
    min_ops = 5
    layers = ("fields",)
    FINE_N = 401
    COUNT = 2

    def __init__(self, cv, seed, pins):
        super().__init__(cv, seed, pins)
        self.variant = seed % VARIANTS
        rng = np.random.default_rng(self.variant)
        self.d_values = stratified(rng, self.COUNT)
        self.warm_d = float(rng.uniform(0.1, 0.9))

    def setup(self, workdir):
        f = self.cv.fields
        self.path = workdir / "generated.ds"
        f.save_dataset(f.generate_dataset([self.warm_d], fine_n=self.FINE_N), self.path)
        f.load_dataset(self.path)

    def ops(self):
        return itertools.repeat(None)

    def run(self, op):
        f = self.cv.fields
        dataset = f.generate_dataset(self.d_values, fine_n=self.FINE_N)
        f.save_dataset(dataset, self.path)
        return dataset, f.load_dataset(self.path)

    def units(self, op):
        return self.COUNT

    def check(self, op, out):
        dataset, back = out
        errors = []
        n = dataset.grid_n
        grids = dataset.fields.reshape(len(dataset), n, n)
        if len(dataset) != self.COUNT:
            errors.append(f"{len(dataset)} fields, expected {self.COUNT}")
        if not np.all(np.isfinite(grids)):
            errors.append("non-finite field value")
        elif np.max(np.abs(grids)) > 1.0:
            errors.append("field value outside [-1, 1]")
        border = np.concatenate([grids[:, 0, :], grids[:, -1, :], grids[:, :, 0], grids[:, :, -1]], axis=1)
        if np.any(border != 0.0):
            errors.append("field is not zero on the grounded box")
        if (back.grid_n, back.v0) != (dataset.grid_n, dataset.v0) or not (
            back.d.tobytes() == dataset.d.tobytes() and back.fields.tobytes() == dataset.fields.tobytes()
        ):
            errors.append("save_dataset -> load_dataset is not bit-exact")
        digest = dataset_digest(dataset)
        self.digests = {"variant": self.variant, "dataset": digest}
        pinned = self.pins.get(str(self.variant))
        if pinned is not None and digest != pinned:
            errors.append(f"dataset digest {digest[:12]} differs from pinned {pinned[:12]}")
        self.extras["fields.save_dataset.bytes"] = self.path.stat().st_size
        return errors


class Train(Workload):
    """The three paper trainings in turn with a fixed iteration budget, each with a model file round trip."""

    name = "train"
    unit = "iterations"
    min_ops = 6
    block = len(CONFIGS)  # a run ends after whole rounds of the three configurations
    layers = ("network", "generative")
    FINE_N = 101
    COUNT = 40
    ITERS = 500
    WARM_ITERS = 30
    WINDOW = 50

    def __init__(self, cv, seed, pins):
        super().__init__(cv, seed, pins)
        self.variant = seed % VARIANTS
        rng = np.random.default_rng(self.variant)
        self.d_values = stratified(rng, self.COUNT)
        self.seeds = {label: int(rng.integers(2**31)) for label, _, _ in CONFIGS}
        self.models = {}

    def setup(self, workdir):
        self.paths = {label: workdir / f"{label}.model" for label, _, _ in CONFIGS}
        self.fields = self.cv.fields.generate_dataset(self.d_values, fine_n=self.FINE_N).fields
        warm = train_models(self.cv, self.fields, self.WARM_ITERS, self.seeds)
        self.cv.generative.save_model(warm["vae_adam"][0], self.paths["vae_adam"])
        self.cv.generative.load_model(self.paths["vae_adam"])

    def ops(self):
        return itertools.cycle(CONFIGS)

    def units(self, op):
        return self.ITERS

    def op_class(self, op):
        return op[0]

    def run(self, op):
        label, kind, optimizer = op
        g = self.cv.generative
        model, history = train_config(self.cv, self.fields, self.ITERS, kind, optimizer, self.seeds[label])
        g.save_model(model, self.paths[label])
        return model, history, g.load_model(self.paths[label])

    def check(self, op, out):
        label = op[0]
        model, history, back = out
        errors = []
        losses = np.asarray(history.total)
        if len(losses) != self.ITERS or not np.all(np.isfinite(losses)):
            errors.append(f"{label}: loss trace is not {self.ITERS} finite values")
        elif not losses[-self.WINDOW:].mean() < losses[: self.WINDOW].mean():
            errors.append(f"{label}: last-window mean loss is not below the first-window mean")
        if not models_equal(model, back):
            errors.append(f"{label}: load_model(save_model(m)) does not reproduce every array")
        self.models[label] = sha256_file(self.paths[label])
        self.digests = {"variant": self.variant, "models": dict(sorted(self.models.items()))}
        # Models trained at the canonical one-thread BLAS setting match the pins;
        # a mismatch is the thread-count defect, counted rather than failed.
        pinned = self.pins.get(str(self.variant), {})
        self.extras["generative.models_canonical"] = sum(pinned.get(lab) == dig for lab, dig in self.models.items())
        self.extras["generative.model.bytes"] = float(
            np.median([self.paths[lab].stat().st_size for lab in self.models]))
        return errors


def read_field_block(path):
    """(meta, grid) from a one-block field file, parsed without capinv code."""
    lines = [ln for ln in Path(path).read_text(encoding="ascii").splitlines() if ln.strip()]
    meta = dict(item.split("=", 1) for item in lines[0].split(","))
    grid = np.asarray([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    return meta, grid


class Invert(Workload):
    """Seeded `capinv invert` requests against artifacts written in setup."""

    name = "invert"
    unit = "requests"
    min_ops = 192
    block = 64  # one shuffled block holds every request combination once
    host_scaled = True  # load_model's text parsing is most of a request
    layers = ("cli", "fields", "generative", "inverse", "network")
    APPROACHES = ("fullspace", "ae", "vae", "vae_adam")
    NOISE = (0.0, 0.01, 0.1, 0.5, 1.0)
    FINE_N = 41
    COUNT = 120
    MODEL_ITERS = 50

    def __init__(self, cv, seed, pins):
        super().__init__(cv, seed, pins)
        rng = np.random.default_rng([seed, 0])
        self.d_values = stratified(rng, self.COUNT)
        self.model_seeds = {label: int(rng.integers(2**31)) for label, _, _ in CONFIGS}
        self.request_rng = np.random.default_rng([seed, 1])
        self._sink = io.StringIO()

    def setup(self, workdir):
        cv = self.cv
        self.workdir = workdir
        self.data_path = workdir / "train.ds"
        self.out_path = workdir / "recovered.csv"
        (workdir / "saved").mkdir()
        dataset = cv.fields.generate_dataset(self.d_values, fine_n=self.FINE_N)
        cv.fields.save_dataset(dataset, self.data_path)
        self.model_paths = {}
        self.reg_paths = {}
        models = train_models(cv, dataset.fields, self.MODEL_ITERS, self.model_seeds)
        pipelines = {"fullspace": cv.inverse.fit_pipeline("fullspace", dataset)}
        self.fullspace = pipelines["fullspace"].regression
        for label, (model, _history) in models.items():
            approach = APPROACH[label]
            self.model_paths[approach] = workdir / f"{approach}.model"
            cv.generative.save_model(model, self.model_paths[approach])
            pipelines[approach] = cv.inverse.fit_pipeline("latent", dataset, model=model)
        for approach, pipeline in pipelines.items():
            self.reg_paths[approach] = workdir / f"{approach}.reg"
            cv.inverse.save_pipeline(pipeline, self.reg_paths[approach])
        self.digests = {
            "models": {a: sha256_file(p) for a, p in self.model_paths.items()},
            "dataset": dataset_digest(dataset),
        }
        self.extras["generative.model.bytes"] = float(
            np.median([p.stat().st_size for p in self.model_paths.values()]))
        self.n_saved = 0
        warm_rng = np.random.default_rng(0)
        for i, approach in enumerate(self.APPROACHES):
            self.run(self._request(approach, 3 * (i % 2), True, True, warm_rng))

    def _request(self, approach, slot, save, corrupt, rng):
        """slot 0-2 reads the regression file; slot 3 fits from --data."""
        d = float(rng.uniform(0.1, 0.9))
        argv = ["invert", "--approach", "fullspace" if approach == "fullspace" else "latent"]
        if approach != "fullspace":
            argv += ["--model", str(self.model_paths[approach])]
        saved = None
        if slot < 3:
            argv += ["--regression", str(self.reg_paths[approach])]
        else:
            argv += ["--data", str(self.data_path)]
            if save:
                saved = self.workdir / "saved" / f"{self.n_saved}.reg"
                self.n_saved += 1
                argv += ["--save-regression", str(saved)]
        argv += ["--d", repr(d), "--noise", repr(float(rng.choice(self.NOISE))),
                 "--seed", str(int(rng.integers(2**31)))]
        if approach != "fullspace" and corrupt:
            argv.append("--corrupt-field-first")
        argv += ["--out", str(self.out_path)]
        return {"argv": argv, "approach": approach, "d": d, "saved": saved, "source": "data" if slot == 3 else "reg"}

    def ops(self):
        # Shuffled blocks of every (approach, source slot, save, corrupt)
        # combination keep the mix at its stated shares in every run.
        combos = list(itertools.product(self.APPROACHES, range(4), (False, True), (False, True)))
        while True:
            for i in self.request_rng.permutation(len(combos)):
                yield self._request(*combos[i], self.request_rng)

    def op_class(self, op):
        return op["approach"], op["source"]

    def run(self, op):
        with contextlib.redirect_stdout(self._sink):
            rc = self.cv.cli.main(op["argv"])
        self._sink.seek(0)
        self._sink.truncate()
        return rc

    def check(self, op, rc):
        if rc != 0:
            return [f"exit code {rc} for {' '.join(op['argv'])}"]
        errors = []
        meta, grid = read_field_block(self.out_path)
        if grid.shape != (21, 21) or not np.all(np.isfinite(grid)):
            errors.append(f"recovered block is not a finite 21x21 grid (shape {grid.shape})")
        elif float(meta.get("d", "nan")) != op["d"]:
            errors.append(f"recovered block is for d={meta.get('d')}, requested {op['d']!r}")
        elif op["approach"] == "fullspace":
            reg = self.fullspace
            terms = grid.ravel() * reg.phi
            residual = abs(float(np.sum(terms)) + reg.intercept - op["d"])
            scale = float(np.sum(np.abs(terms))) + abs(reg.intercept) + abs(op["d"])
            tol = self.cv.inverse.InverseOptions().residual_tol + 4 * terms.size * np.finfo(float).eps * scale
            if residual > tol:
                errors.append(f"fullspace residual {residual:.3e} exceeds {tol:.3e}")
        if op["saved"] is not None:
            if not op["saved"].is_file():
                errors.append("--save-regression wrote no file")
            else:
                op["saved"].unlink()
        return errors


class Sweep(Workload):
    """Rounds of the paper's 560-cell noise sweep with a CSV export each."""

    name = "sweep"
    unit = "cells"
    min_ops = 100
    host_scaled = True  # the per-cell path is interpreter-bound
    layers = ("experiments", "inverse", "generative", "network")
    FINE_N = 41
    COUNT = 120
    MODEL_ITERS = 50
    SEEDS_PER_ROUND = 5
    WARM_ROUNDS = 2

    def __init__(self, cv, seed, pins):
        super().__init__(cv, seed, pins)
        rng = np.random.default_rng([seed, 0])
        self.d_values = stratified(rng, self.COUNT)
        self.model_seeds = {label: int(rng.integers(2**31)) for label, _, _ in CONFIGS}
        self.round_rng = np.random.default_rng([seed, 1])
        self.cells_hash = hashlib.sha256()
        self.cells_failed = 0

    def setup(self, workdir):
        cv = self.cv
        self.out_dir = workdir / "results"
        train_set = cv.fields.generate_dataset(self.d_values, fine_n=self.FINE_N)
        self.test_set = cv.fields.generate_dataset(cv.fields.TEST_D, fine_n=self.FINE_N)
        models = train_models(cv, train_set.fields, self.MODEL_ITERS, self.model_seeds)
        self.model_digests = {APPROACH[label]: model_digest(m) for label, (m, _history) in models.items()}
        self.pipelines = {"fullspace": cv.inverse.fit_pipeline("fullspace", train_set)}
        for label, kind, optimizer in CONFIGS:
            self.pipelines[APPROACH[label]] = cv.inverse.fit_pipeline(
                "latent", train_set, model=models[label][0], optimizer_tag=optimizer)
        self.cells_per_round = (len(self.pipelines) * len(cv.fields.TEST_D)
                                * len(cv.experiments.SweepConfig().noise_levels) * self.SEEDS_PER_ROUND)
        warm_rng = np.random.default_rng(0)
        for _ in range(self.WARM_ROUNDS):
            self.run(tuple(int(s) for s in warm_rng.choice(10**6, self.SEEDS_PER_ROUND, replace=False)))

    def ops(self):
        while True:
            yield tuple(int(s) for s in self.round_rng.choice(10**6, self.SEEDS_PER_ROUND, replace=False))

    def units(self, op):
        return self.cells_per_round

    def run(self, seeds):
        e = self.cv.experiments
        result = e.run_noise_sweep(e.SweepConfig(seeds=seeds), self.pipelines, self.test_set)
        return result, e.export_results(result, self.out_dir)

    def check(self, seeds, out):
        result, paths = out
        errors = []
        cells = result.cells
        failed = [c for c in cells if c.error is not None]
        self.cells_failed += len(failed)
        if len(cells) != self.cells_per_round:
            errors.append(f"{len(cells)} cells, expected {self.cells_per_round}")
        if failed:
            errors.append(f"{len(failed)} cells failed, first: {failed[0].error}")
        if not all(math.isfinite(c.ssd) for c in cells):
            errors.append("non-finite ssd")
        cells_path = next(Path(p) for p in paths if Path(p).name == "sweep_cells.csv")
        key = lambda c: (c.approach, c.optimizer, c.d, c.e, c.seed, c.ssd, c.error)
        if [key(c) for c in self.cv.experiments.read_sweep_cells(cells_path)] != [key(c) for c in cells]:
            errors.append("read_sweep_cells of the export differs from the sweep cells")
        self.cells_hash.update(cells_path.read_bytes())
        self.digests = {"models": self.model_digests, "sweep_cells": self.cells_hash.hexdigest()}
        self.extras["experiments.cells_failed"] = self.cells_failed
        self.extras["experiments.export_results.bytes"] = sum(Path(p).stat().st_size for p in paths)
        return errors


WORKLOADS = {w.name: w for w in (Generate, Train, Invert, Sweep)}
