"""Benchmark harness: error metric, noise sweeps, stage timing, CSV export.

Outputs are plain-text comma-separated tables with self-describing
headers, written with repr floats so that re-reading a file reproduces
every value bit for bit. No plotting here; the tables are plot-ready.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .fields import Dataset, FieldGrid, TEST_D
from .generative import decode, encode
from .inverse import (
    UNTAGGED,
    InversionError,
    _noisy_start,
    _solve_from,
    fit_regression,
    inverse_predict,
)
from .network import single_blas_thread
from .textio import _field_block, _text, _writing

__all__ = [
    "ssd",
    "SweepConfig",
    "SweepCell",
    "AggregateRow",
    "SweepResult",
    "StageTiming",
    "run_noise_sweep",
    "aggregate_cells",
    "run_timing",
    "export_results",
    "read_sweep_cells",
    "EXPORT_NAMES",
    "TIMING_STAGES",
]

EXPORT_NAMES = (
    "fig6_fields.csv",
    "fig8_ssd.csv",
    "fig9_ssd.csv",
    "table2_timing.csv",
    "sweep_cells.csv",
)

TIMING_STAGES = ("encoder", "regression", "inverse", "decoder")
_TIMING_WARMUP = 10  # untimed calls per stage before the timed repetitions
_TIMING_TARGET_D = 0.36  # separation the inverse stage is timed at
_SAME_D = 1e-9  # separations this close are one: in the groundtruth lookup, the kept fields and repeat checks
_GROUNDTRUTH = "groundtruth"  # the approach tag of the true fields in fig6, so no pipeline may take it
_KEPT_D = 0.36  # the separation whose fields a sweep keeps by default, where it is swept


def ssd(a: FieldGrid, b: FieldGrid) -> float:
    """Sum of squared node differences between two same-shape, same-units grids."""
    if a.values.shape != b.values.shape:
        raise ValueError(f"grid shape mismatch: {a.values.shape} vs {b.values.shape}")
    if a.units != b.units:
        raise ValueError(f"units mismatch: {a.units!r} vs {b.units!r}")
    diff = a.values - b.values
    return float((diff * diff).sum())


@dataclass(frozen=True)
class SweepConfig:
    """Grid of sweep cells: every approach x test d x noise level x seed.

    keep_fields_d lists the separations whose recovered grids are retained
    on the cells (and exported as field blocks); each must be one of
    test_d. Left out, it is 0.36 where test_d sweeps 0.36 and empty
    elsewhere. No list may repeat a value, NaN included; separations count
    as equal within 1e-9, as everywhere else.
    """

    noise_levels: tuple = (0.01, 0.1, 0.5, 1.0)
    test_d: tuple = TEST_D
    seeds: tuple = (0, 1, 2, 3, 4)
    keep_fields_d: tuple | None = None
    corrupt_field_first: bool = False

    def __post_init__(self) -> None:
        if self.keep_fields_d is None:
            object.__setattr__(self, "keep_fields_d", (_KEPT_D,) if _same(self.test_d, _KEPT_D).any() else ())
        for name, atol in (("noise_levels", 0.0), ("test_d", _SAME_D), ("seeds", 0.0), ("keep_fields_d", _SAME_D)):
            values = getattr(self, name)
            for i, value in enumerate(values):
                if _same(values[:i], value, atol).any():
                    raise ValueError(f"{name} repeats {value!r}")
        for d in self.keep_fields_d:
            if not _same(self.test_d, d).any():
                raise ValueError(f"keep_fields_d: {d!r} matches no test_d")


@dataclass
class SweepCell:
    approach: str
    optimizer: str
    d: float
    e: float
    seed: int
    ssd: float
    error: str | None = None
    field_values: np.ndarray | None = None


@dataclass
class AggregateRow:
    approach: str
    optimizer: str
    d: float
    e: float
    n_seeds: int
    ssd_median: float
    ssd_iqr: float


@dataclass
class SweepResult:
    cells: list
    groundtruth: list  # (d, grid values) pairs for the kept separations


def _same(values, value, atol: float = _SAME_D) -> np.ndarray:
    """Which of values equal value within atol, NaN equal to NaN; the default compares separations."""
    return np.isclose(values, value, rtol=0.0, atol=atol, equal_nan=True)


def _match_d(values: np.ndarray, d: float) -> int:
    hits = np.flatnonzero(_same(values, d))
    if hits.size == 0:
        raise ValueError(f"no groundtruth field for test_d={d!r}")
    return int(hits[0])


def run_noise_sweep(config: SweepConfig, pipelines: dict, test_set: Dataset) -> SweepResult:
    """Evaluate every (approach, d, e, seed) cell against the groundtruth set.

    A failing cell records the error message and a NaN ssd instead of
    aborting the sweep. Cells are emitted in a fixed deterministic order
    (approach, then d, then e, then seed), and every cell is independent,
    so the result does not depend on evaluation order. A missing
    groundtruth separation, a pipeline named like the true fields
    ('groundtruth'), or one of another grid than the test set, fails before
    the first cell.
    """
    cells: list[SweepCell] = []
    truth: list[tuple[float, np.ndarray]] = []
    targets = []  # (d, groundtruth grid, keep its recovered fields)
    for d in config.test_d:
        reference = test_set.field_grid(_match_d(test_set.d, d))  # fail fast if the groundtruth is missing
        keep = _same(config.keep_fields_d, d).any()
        if keep:
            truth.append((float(d), reference.values))
        targets.append((d, reference, keep))
    for name, pipeline in pipelines.items():
        if name == _GROUNDTRUTH:
            raise ValueError(f"approach name {name!r} is reserved for the true fields")
        if targets and pipeline.grid_n != test_set.grid_n:
            raise ValueError(f"pipeline {name!r} has grid {pipeline.grid_n}, "
                             f"but the test set has grid {test_set.grid_n}")
    for name, pipeline in pipelines.items():
        # recover_field in two steps: the start of an (e, seed) does not
        # depend on d, so it is drawn once and shared by every separation.
        # A start that raises is not kept, so each of its cells fails alone.
        starts = {}
        for d, reference, keep in targets:
            for e in config.noise_levels:
                for seed in config.seeds:
                    cell = SweepCell(approach=name, optimizer=pipeline.optimizer_tag,
                                     d=float(d), e=float(e), seed=int(seed), ssd=float("nan"))
                    try:
                        start = starts.get((e, seed))
                        if start is None:
                            start = starts[e, seed] = _noisy_start(pipeline, e, seed, config.corrupt_field_first)
                        grid = _solve_from(pipeline, d, start)
                        cell.ssd = ssd(reference, grid)
                        if keep:
                            cell.field_values = grid.values.copy()
                    except (InversionError, ValueError) as exc:
                        cell.error = str(exc)
                    cells.append(cell)
    return SweepResult(cells=cells, groundtruth=truth)


def aggregate_cells(cells) -> list:
    """Median and interquartile range over seeds per (approach, optimizer, d, e).

    Failed cells are excluded; a group with no surviving cells reports
    NaN with n_seeds = 0. Groups keep first-seen order, which is seed-order
    independent because grouping ignores the seed.

    Groups with the same number of surviving cells are stacked into one
    sorted table, and each table gets one median and one percentile call
    along its rows, whose per-row arithmetic is that of a call per group.
    """
    groups: dict[tuple, list[float]] = {}
    for cell in cells:
        group = groups.setdefault((cell.approach, cell.optimizer, cell.d, cell.e), [])
        if cell.error is None:
            group.append(cell.ssd)
    by_size: dict[int, list[tuple]] = {}
    for key, group in groups.items():
        by_size.setdefault(len(group), []).append(key)
    stats = {}  # key -> (median, iqr)
    for size, keys in by_size.items():
        if size == 0:
            medians = iqrs = [float("nan")] * len(keys)
        else:
            table = np.sort(np.array([groups[key] for key in keys], dtype=np.float64), axis=1)
            q1, q3 = np.percentile(table, [25, 75], axis=1)
            medians, iqrs = np.median(table, axis=1).tolist(), (q3 - q1).tolist()
        stats.update(zip(keys, zip(medians, iqrs)))
    return [
        AggregateRow(approach=key[0], optimizer=key[1], d=key[2], e=key[3], n_seeds=len(group),
                     ssd_median=stats[key][0], ssd_iqr=stats[key][1])
        for key, group in groups.items()
    ]


@dataclass
class StageTiming:
    approach: str
    optimizer: str
    space_dim: int
    encoder_ms: float | None
    regression_ms: float | None
    inverse_ms: float | None
    decoder_ms: float | None

    @property
    def total_ms(self) -> float:
        return sum(v for v in (self.encoder_ms, self.regression_ms, self.inverse_ms, self.decoder_ms) if v is not None)


def _median_ms(fn, samples: np.ndarray) -> float:
    """The median of len(samples) timed calls of fn, in ms; samples is scratch."""
    for _ in range(_TIMING_WARMUP):
        fn()
    for i in range(len(samples)):
        t0 = time.perf_counter()
        fn()
        samples[i] = time.perf_counter() - t0
    return float(np.median(samples)) * 1e3


def run_timing(pipelines: dict, dataset: Dataset, repetitions: int = 100) -> list:
    """One StageTiming row per pipeline: median wall-clock per stage, in ms.

    Stages: encoder (one field encoded), regression (affine fit on the
    full training set in the approach's space), inverse (gradient descent
    to _TIMING_TARGET_D from the clean anchor), decoder (one latent
    decoded). Each stage first runs _TIMING_WARMUP untimed calls.
    Fullspace has no encoder/decoder stage (None). The search-space
    dimension is recorded next to the timings. Times are hardware
    specific; only their relative structure is meaningful. The stages run
    with BLAS on one thread (network.single_blas_thread), as every capinv
    command does, so no stage is timed while the idle helper thread of an
    earlier multi-threaded product still spins on the other core.
    """
    if repetitions < 1:
        raise ValueError(f"repetitions must be positive, got {repetitions}")
    samples = np.empty(repetitions)  # before any stage runs, so a size no machine holds fails first
    rows = []
    with single_blas_thread():
        for name, pipe in pipelines.items():
            if pipe.approach == "fullspace":
                features = dataset.fields
                encoder_ms = decoder_ms = None
            else:
                features = encode(pipe.model, dataset.fields)
                encoder_ms = _median_ms(lambda: encode(pipe.model, pipe.anchor_field), samples)
            regression_ms = _median_ms(
                lambda: fit_regression(features, dataset.d, space=pipe.approach), samples
            )
            inverse_ms = _median_ms(
                lambda: inverse_predict(pipe.regression, _TIMING_TARGET_D, pipe.anchor), samples
            )
            if pipe.approach == "latent":
                solution = inverse_predict(pipe.regression, _TIMING_TARGET_D, pipe.anchor)
                decoder_ms = _median_ms(lambda: decode(pipe.model, solution), samples)
            rows.append(
                StageTiming(
                    approach=name,
                    optimizer=pipe.optimizer_tag,
                    space_dim=int(pipe.anchor.shape[0]),
                    encoder_ms=encoder_ms,
                    regression_ms=regression_ms,
                    inverse_ms=inverse_ms,
                    decoder_ms=decoder_ms,
                )
            )
    return rows


def export_results(result: SweepResult, out_dir, timing: list | None = None) -> list:
    """Write the plot-ready tables into out_dir; returns the paths written.

    fig6_fields.csv   blocks: one meta line (approach=..,optimizer=..,d=..,
                      e=..,seed=..,grid=n) then n grid rows; groundtruth
                      blocks come first with approach=groundtruth.
    fig8_ssd.csv      aggregate rows (approach,optimizer,d,e,n_seeds,
                      ssd_median,ssd_iqr) for every non-adam tag.
    fig9_ssd.csv      the same aggregate columns for adam-tagged rows.
    table2_timing.csv stage column then one column per run_timing row;
                      '-' marks stages an approach does not have. Without
                      timing it holds the stage header alone.
    sweep_cells.csv   every raw cell (approach,optimizer,d,e,seed,ssd,
                      error), NaN ssd for failed cells.
    An empty result still writes every file, header-only.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = [out / name for name in EXPORT_NAMES]

    blocks = [({"approach": _GROUNDTRUTH, "optimizer": UNTAGGED, "d": d, "e": None, "seed": None}, values)
              for d, values in result.groundtruth]
    blocks += [({"approach": cell.approach, "optimizer": cell.optimizer,
                 "d": cell.d, "e": cell.e, "seed": cell.seed}, cell.field_values)
               for cell in result.cells if cell.field_values is not None]
    with _writing(paths[0]) as fh:
        fh.writelines(_field_block(meta, values) for meta, values in blocks)

    aggregates = aggregate_cells(result.cells)
    header = ["approach", "optimizer", "d", "e", "n_seeds", "ssd_median", "ssd_iqr"]
    fig8, fig9 = [header], [header]
    for row in aggregates:
        (fig9 if row.optimizer == "adam" else fig8).append(
            [row.approach, row.optimizer, row.d, row.e, row.n_seeds, row.ssd_median, row.ssd_iqr]
        )

    table2 = [["stage"]]
    if timing is not None:  # one column per row of timing, next to the labels
        columns = [[row.approach, row.optimizer, row.space_dim,
                    *(_text(getattr(row, f"{stage}_ms")) for stage in TIMING_STAGES), _text(row.total_ms)]
                   for row in timing]
        table2 = list(zip(["stage", "optimizer", "space_dim", *TIMING_STAGES, "total"], *columns))

    cells = [["approach", "optimizer", "d", "e", "seed", "ssd", "error"]]
    cells += [[cell.approach, cell.optimizer, cell.d, cell.e, cell.seed, cell.ssd, cell.error]
              for cell in result.cells]

    for path, rows in zip(paths[1:], (fig8, fig9, table2, cells)):
        with _writing(path) as fh:
            csv.writer(fh).writerows(rows)
    return [str(p) for p in paths]


def read_sweep_cells(path):
    """The raw cells back from sweep_cells.csv (without kept fields)."""
    with open(path, "r", encoding="ascii", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        cells = []
        for rec in reader:
            cells.append(
                SweepCell(
                    approach=rec[0],
                    optimizer=rec[1],
                    d=float(rec[2]),
                    e=float(rec[3]),
                    seed=int(rec[4]),
                    ssd=float(rec[5]),
                    error=rec[6] or None,
                )
            )
    return cells

