"""Command-line front end: generate / train / invert / sweep."""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import experiments, fields, generative, inverse
from .network import DEFAULT_LEARNING_RATES, TrainingError, single_blas_thread
from .textio import _field_block, _named, _row, _sized, _writing

# MemoryError: a size no machine can allocate, such as --count 10**16 (see _sized)
_USAGE_ERRORS = (fields.ConvergenceError, TrainingError, inverse.InversionError, ValueError, OSError, MemoryError)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="capinv",
        description="Capacitor field generation, generative model training, and inverse field prediction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="solve capacitor fields and write a dataset")
    p.add_argument("--out", required=True, help="dataset file to write")
    p.add_argument("--d-min", type=float, default=fields.TRAIN_D[0],
                   help="smallest plate separation (default %(default)s)")
    p.add_argument("--d-max", type=float, default=fields.TRAIN_D[-1],
                   help="largest plate separation (default %(default)s)")
    p.add_argument("--count", type=int, default=len(fields.TRAIN_D),
                   help="number of evenly spaced separations (default %(default)s)")
    p.add_argument(
        "--test-set",
        action="store_true",
        help="ignore --d-min/--d-max/--count and build the benchmark evaluation set "
        f"(d = {', '.join(str(d) for d in fields.TEST_D)})",
    )
    geometry = fields.CapacitorConfig
    p.add_argument("--a", type=float, default=geometry.a, help="left plate edge (default %(default)s)")
    p.add_argument("--b", type=float, default=geometry.b, help="right plate edge (default %(default)s)")
    p.add_argument("--v0", type=float, default=geometry.v0, help="plate potential magnitude (default %(default)s)")
    p.add_argument("--fine-n", type=int, default=geometry.fine_n,
                   help="solve resolution per side (default %(default)s)")
    p.add_argument("--coarse-n", type=int, default=geometry.coarse_n,
                   help="stored resolution per side (default %(default)s)")
    p.add_argument("--omega", type=float, help="SOR relaxation factor (default: optimal for --fine-n)")
    p.add_argument("--tol", type=float, help="SOR stopping tolerance (default: scaled to --v0 by the solver)")
    p.add_argument("--max-sweeps", type=int,
                   default=inspect.signature(fields.solve_sor).parameters["max_sweeps"].default,
                   help="SOR sweep budget (default %(default)s)")

    p = sub.add_parser("train", help="train a generative model on a dataset")
    p.add_argument("--kind", required=True, choices=generative.KINDS, help="model kind")
    p.add_argument("--data", required=True, help="training dataset (from `capinv generate`)")
    p.add_argument("--out", required=True, help="model file to write")
    training = generative.GenerativeTrainConfig
    p.add_argument("--optimizer", default=training.optimizer, choices=sorted(DEFAULT_LEARNING_RATES),
                   help="optimizer (default %(default)s)")
    rates = ", ".join(f"{rate:g} for {name}" for name, rate in DEFAULT_LEARNING_RATES.items())
    p.add_argument("--lr", type=float, help=f"learning rate (default: {rates})")
    p.add_argument("--iters", type=int, default=training.max_iterations,
                   help="training iterations (default %(default)s)")
    p.add_argument("--batch", type=int, default=training.minibatch_size, help="minibatch size (default %(default)s)")
    p.add_argument("--latent", type=int, default=training.latent_dim, help="latent width (default %(default)s)")
    p.add_argument("--hidden", type=int, default=training.hidden_dim, help="hidden width (default %(default)s)")
    p.add_argument("--beta", type=float, default=training.beta, help="divergence weight for vae (default %(default)s)")
    p.add_argument("--seed", type=int,
                   default=inspect.signature(generative.train_generative).parameters["seed"].default,
                   help="training seed (default %(default)s)")
    p.add_argument("--history", default=None,
                   help="loss history file (default: <out>.history.csv)")

    p = sub.add_parser("invert", help="recover a field for a target separation")
    p.add_argument("--approach", required=True, choices=inverse.SPACES, help="search space")
    p.add_argument("--model", default=None, help="generative model file (required for latent)")
    p.add_argument("--regression", default=None, help="fitted regression artifact to load")
    p.add_argument("--data", default=None,
                   help="training dataset: fit the regression on the fly instead of --regression")
    p.add_argument("--save-regression", default=None,
                   help="with --data: write the fitted regression artifact here")
    p.add_argument("--d", type=float, required=True, help="target separation")
    p.add_argument("--noise", type=float, default=0.0, help="noise variance on the initial estimate (default 0)")
    p.add_argument("--seed", type=int, default=0, help="noise seed (default 0)")
    p.add_argument("--corrupt-field-first", action="store_true",
                   help="latent only: corrupt the anchor field before encoding instead of the code")
    p.add_argument("--out", required=True, help="recovered field file to write")

    p = sub.add_parser(
        "sweep",
        help="run the noise sweep described by a config file",
        epilog="config keys: train_data, out_dir (required); test_data (required unless "
        "test_d is empty); approaches (comma list, default fullspace); model_<name>= per latent "
        "approach and optimizer_<name>= per approach; noise_levels, test_d, seeds, keep_fields_d (comma lists); "
        "timing_reps (0 disables timing); corrupt_field_first (true/false/yes/no/1/0). A key given twice, "
        "or one that acts on nothing, is refused before any file is read.",
    )
    p.add_argument("--config", required=True, help="key=value config file (one pair per line, # comments)")
    return parser


def _distinct(inputs: dict, outputs: dict) -> None:
    """Refuse an output path that names an input or another output of the
    same command, by flag: one file would silently replace the other."""
    seen: dict = {}
    for flag, path in {**inputs, **outputs}.items():
        if path is None:
            continue
        real = os.path.realpath(path)
        if real in seen and flag in outputs:
            raise ValueError(f"{flag} {path} names the same file as {seen[real]}")
        seen.setdefault(real, flag)


def _cmd_generate(args) -> int:
    if args.test_set:
        d_values = fields.TEST_D
    else:
        if args.count < 1:
            raise ValueError(f"--count must be positive, got {args.count}")
        for flag, value in (("--d-min", args.d_min), ("--d-max", args.d_max)):
            if not math.isfinite(value):
                raise ValueError(f"{flag} must be finite, got {value}")
        if args.d_min > args.d_max:
            raise ValueError(f"--d-min {args.d_min} exceeds --d-max {args.d_max}")
        with _sized("--count", args.count):
            d_values = np.linspace(args.d_min, args.d_max, args.count)
    dataset = fields.generate_dataset(
        d_values, a=args.a, b=args.b, v0=args.v0, fine_n=args.fine_n, coarse_n=args.coarse_n,
        omega=args.omega, tol=args.tol, max_sweeps=args.max_sweeps,
    )
    fields.save_dataset(dataset, args.out)
    print(f"wrote {len(dataset)} fields ({dataset.grid_n}x{dataset.grid_n}) to {args.out}")
    return 0


def _cmd_train(args) -> int:
    if args.seed < 0:
        raise ValueError(f"--seed must be nonnegative, got {args.seed}")
    history_path = args.history if args.history is not None else f"{args.out}.history.csv"
    _distinct({"--data": args.data}, {"--out": args.out, "--history": history_path})
    config = generative.GenerativeTrainConfig(
        optimizer=args.optimizer, learning_rate=args.lr, max_iterations=args.iters, minibatch_size=args.batch,
        beta=args.beta, latent_dim=args.latent, hidden_dim=args.hidden,
    )
    dataset = fields.load_dataset(args.data)
    with _sized("--iters", args.iters):
        model, history = generative.train_generative(args.kind, dataset.fields, config, seed=args.seed)
    generative.save_model(model, args.out)
    with _writing(history_path) as fh:
        fh.write("iteration,total,rec,kld\n")
        fh.writelines(f"{i},{_row(row)}\n" for i, row in enumerate(zip(history.total, history.rec, history.kld)))
    final = history.total[-1] if len(history.total) else float("nan")
    print(f"trained {args.kind} for {config.max_iterations} iterations (final loss {final:.6g})")
    print(f"wrote model to {args.out} and loss history to {history_path}")
    return 0


def _cmd_invert(args) -> int:
    if args.seed < 0:
        raise ValueError(f"--seed must be nonnegative, got {args.seed}")
    if (args.regression is None) == (args.data is None):
        raise ValueError("pass exactly one of --regression or --data")
    if args.save_regression is not None and args.data is None:
        raise ValueError("--save-regression needs --data")
    _distinct({"--model": args.model, "--regression": args.regression, "--data": args.data},
              {"--save-regression": args.save_regression, "--out": args.out})
    model = None
    if args.approach == "latent":
        if args.model is None:
            raise ValueError("the latent approach requires --model")
        model = generative.load_model(args.model)
    if args.data is not None:
        dataset = fields.load_dataset(args.data)
        pipeline = inverse.fit_pipeline(args.approach, dataset, model=model)
        if args.save_regression is not None:
            inverse.save_pipeline(pipeline, args.save_regression)
    else:
        # Checked before the load, which would refuse a latent artifact for
        # its missing model; an unknown space fails in the load, by name.
        space = inverse._read_space(args.regression)
        if space in inverse.SPACES and space != args.approach:
            raise ValueError(f"{args.regression}: regression artifact was fitted for {space!r}, not {args.approach!r}")
        pipeline = inverse.load_pipeline(args.regression, model=model)
    grid = inverse.recover_field(
        pipeline, args.d, args.noise, args.seed, corrupt_field_first=args.corrupt_field_first
    )
    meta = {"approach": args.approach, "optimizer": pipeline.optimizer_tag,
            "d": args.d, "e": args.noise, "seed": args.seed}
    with _writing(args.out) as fh:
        fh.write(_field_block(meta, grid.values))
    print(f"wrote recovered {grid.n}x{grid.n} field to {args.out}")
    return 0


def _list(kind):
    return lambda text: tuple(kind(tok) for tok in text.split(",") if tok.strip())


_FLAGS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _flag(text: str) -> bool:
    if text.lower() not in _FLAGS:
        raise ValueError(f"expected one of {'/'.join(_FLAGS)}, got {text!r}")
    return _FLAGS[text.lower()]


def _nonnegative(kind):
    def parse(text: str):
        value = kind(text)
        if not 0 <= value < math.inf:
            raise ValueError(f"must be finite and nonnegative, got {value}")
        return value

    return parse


def _tag(text: str) -> str:
    """An optimizer tag. Each character InversePipeline refuses is refused
    here, while the config is parsed, so the error names the file and key."""
    for bad in inverse._TAG_REFUSED:
        if bad in text:
            raise ValueError(f"must not hold {bad!r}, got {text!r}")
    return text


# The parser of each fixed sweep config key. A key absent from the file keeps
# the default of the SweepConfig field it feeds, or the one _SWEEP_DEFAULTS
# reads from the library.
_SWEEP_KEYS = {
    "train_data": str, "test_data": str, "out_dir": str, "approaches": _list(str.strip),
    "noise_levels": _list(_nonnegative(float)), "test_d": _list(float),
    "seeds": _list(_nonnegative(int)), "keep_fields_d": _list(float), "corrupt_field_first": _flag,
    "timing_reps": _nonnegative(int),
}
_SWEEP_DEFAULTS = {
    "approaches": inverse.SPACES[:1],  # fullspace alone
    "timing_reps": inspect.signature(experiments.run_timing).parameters["repetitions"].default,
}


def _parse_sweep_config(path) -> tuple:
    """The values of a sweep config and the SweepConfig they build.

    Every key is checked here, so a refused config fails naming its path
    before any file it names is opened; that includes an out_dir that is
    a file, or whose exports would replace a file the sweep reads.
    approaches and timing_reps are filled in when the file leaves them out.
    """
    with _named(path):
        text = Path(path).read_text(encoding="ascii")
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, val = line.split("=", 1)
        key = key.strip()
        parse = _SWEEP_KEYS.get(
            key, str if key.startswith("model_") else _tag if key.startswith("optimizer_") else None
        )
        if parse is None:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ValueError(f"{path}:{lineno}: repeats key {key!r}")
        with _named(f"{path}: {key}"):
            values[key] = parse(val.strip())
    values = {**_SWEEP_DEFAULTS, **values}
    with _named(path):
        config = experiments.SweepConfig(
            **{f.name: values[f.name] for f in dataclasses.fields(experiments.SweepConfig) if f.name in values}
        )
        # an empty test_d sweeps no cells, so nothing reads the test set
        required = ("train_data", "out_dir", "test_data")[: 3 if config.test_d else 2]
        for key in required:
            if key not in values:
                raise ValueError(f"missing required key {key!r}")
        # export_results makes out_dir, which fails only after every cell
        # when out_dir, or the nearest part of it that exists, is a file.
        out_dir = Path(values["out_dir"])
        nearest = next(p for p in (out_dir, *out_dir.parents) if os.path.lexists(p))
        if not nearest.is_dir():
            raise ValueError(f"out_dir: {nearest} is not a directory")
        approaches = values["approaches"]
        for name in approaches:
            if approaches.count(name) > 1:
                raise ValueError(f"approaches repeats {name!r}")
            if name == experiments._GROUNDTRUTH:
                raise ValueError(f"approaches: {name!r} is reserved for the true fields")
            if name != "fullspace" and f"model_{name}" not in values:
                raise ValueError(f"approach {name!r} needs a model_{name}= entry in the config")
        if "model_fullspace" in values:
            raise ValueError("model_fullspace: the fullspace approach takes no model")
        for key in values:  # the model_ and optimizer_ keys, by the approach they name
            if key not in _SWEEP_KEYS and key.partition("_")[2] not in approaches:
                raise ValueError(f"{key}: approaches does not list {key.partition('_')[2]!r}")
        inputs = {key: val for key, val in values.items()
                  if key.startswith("model_") or key in required and key != "out_dir"}
        _distinct({"--config": path, **inputs},
                  {f"out_dir/{name}": os.path.join(values["out_dir"], name) for name in experiments.EXPORT_NAMES})
    return values, config


def _cmd_sweep(args) -> int:
    cfg, sweep_config = _parse_sweep_config(args.config)
    train_set = fields.load_dataset(cfg["train_data"])
    # Only the cells read the test set, and a timing-only sweep has none.
    test_set = fields.load_dataset(cfg["test_data"]) if sweep_config.test_d else None
    pipelines = {}
    for name in cfg["approaches"]:
        latent = name != "fullspace"
        model = generative.load_model(cfg[f"model_{name}"]) if latent else None
        tag = cfg.get(f"optimizer_{name}", generative.GenerativeTrainConfig.optimizer if latent else inverse.UNTAGGED)
        space = "latent" if latent else "fullspace"
        pipelines[name] = inverse.fit_pipeline(space, train_set, model=model, optimizer_tag=tag)
    # Timed first, so a timing_reps no machine can hold fails before the cells.
    with _sized("timing_reps", cfg["timing_reps"]):
        timing = experiments.run_timing(pipelines, train_set, cfg["timing_reps"]) if cfg["timing_reps"] else None
    # A cell records its own error, so what escapes is about the test set.
    with _named(cfg.get("test_data")):
        result = experiments.run_noise_sweep(sweep_config, pipelines, test_set)
    paths = experiments.export_results(result, cfg["out_dir"], timing=timing)
    failures = sum(1 for cell in result.cells if cell.error is not None)
    print(f"swept {len(result.cells)} cells ({failures} failed); wrote:")
    for p in paths:
        print(f"  {p}")
    return 0


_COMMANDS = {"generate": _cmd_generate, "train": _cmd_train, "invert": _cmd_invert, "sweep": _cmd_sweep}


def main(argv=None) -> int:
    """Run one capinv command and return its exit code: 0, 1 for a refused
    input or a failed step, 2 for a usage error.

    The command runs with BLAS on one thread (network.single_blas_thread),
    and the caller's thread count is put back afterwards. No capinv matrix
    product is big enough to gain from a second OpenBLAS thread, and after
    a multi-threaded product OpenBLAS's idle helper thread keeps spinning
    on another core for over 100 ms, which slows whatever runs next (the
    README's determinism paragraph has the measurement).
    """
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        with single_blas_thread():
            return _COMMANDS[args.command](args)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
