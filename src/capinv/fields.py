"""Electrostatic fields of a parametric parallel-plate capacitor.

A grounded unit box filled with air holds two horizontal plate electrodes
at potentials +v0 and -v0, placed symmetrically about mid-height with
separation d. The potential satisfies the Laplace equation; it is
discretized with the 5-point stencil on a uniform fine grid, relaxed with
successive over-relaxation (SOR), and sampled down to the coarse grid the
learning stages consume.

Grid convention: values[i, j] is the potential at (x, y) = (j*h, i*h)
with h = 1/(n-1), so row index follows y and column index follows x.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .textio import _header, _reading, _row, _text, _writing

__all__ = [
    "GeometryError",
    "ConvergenceError",
    "CapacitorConfig",
    "BoundaryMask",
    "FieldGrid",
    "Dataset",
    "TRAIN_D",
    "TEST_D",
    "build_boundary_mask",
    "solve_sor",
    "downsample",
    "generate_dataset",
    "save_dataset",
    "load_dataset",
]

# Default parameter grids for the benchmark pipeline: 120 training
# separations spread over [0.1, 0.9], and the seven evaluation separations
# (the six round values plus the 0.36 scenario used for field exports).
TRAIN_D = tuple(float(x) for x in np.linspace(0.1, 0.9, 120))
TEST_D = (0.3, 0.36, 0.4, 0.5, 0.6, 0.7, 0.8)


class GeometryError(ValueError):
    """A capacitor configuration cannot be realized on the grid."""


class ConvergenceError(RuntimeError):
    """SOR ran out of sweeps or met a non-finite update; carries the last
    sweep's max update and the sweep it stopped at."""

    def __init__(self, message: str, residual: float, sweeps: int):
        super().__init__(message)
        self.residual = residual
        self.sweeps = sweeps

    def __reduce__(self):
        return type(self), (self.args[0], self.residual, self.sweeps)


@dataclass(frozen=True)
class CapacitorConfig:
    """Geometry and discretization of one capacitor instance.

    d is the plate separation, a/b the horizontal extent of both plates,
    v0 the plate potential magnitude, large enough that the default SOR tol
    1e-6*v0 is a normal float and at most an eighth of the largest float,
    so that SOR's four-neighbour sums stay finite (a quarter of it
    overflowed). fine_n is the solve resolution per
    side, coarse_n the resolution kept for the learning stages; the fine
    step count must be an integer multiple of the coarse one. The plate rows
    must snap to two distinct fine rows (else a resolution error), and off
    the outer wall unless d = 1 (else degenerate geometry).
    """

    d: float
    a: float = 0.25
    b: float = 0.75
    v0: float = 1.0
    fine_n: int = 401
    coarse_n: int = 21

    def __post_init__(self) -> None:
        if not (0.0 <= self.a < self.b <= 1.0):
            raise GeometryError(f"plate span must satisfy 0 <= a < b <= 1, got a={self.a}, b={self.b}")
        if not (0.0 <= self.d <= 1.0):
            raise GeometryError(f"plate separation must lie in [0, 1], got d={self.d}")
        if not (math.isfinite(self.v0) and self.v0 > 0.0):
            raise GeometryError(f"plate potential must be finite and positive, got v0={self.v0}")
        if 1e-6 * self.v0 < np.finfo(float).tiny:
            raise GeometryError(f"plate potential v0={self.v0} is too small: the default SOR tol 1e-6*v0 underflows")
        if self.v0 > np.finfo(float).max / 8:
            raise GeometryError(f"plate potential v0={self.v0} is too large: SOR's sums of neighbouring potentials overflow")
        if self.fine_n < 3:
            raise GeometryError(f"fine_n must be at least 3, got {self.fine_n}")
        if self.coarse_n < 2:
            raise GeometryError(f"coarse_n must be at least 2, got {self.coarse_n}")
        if (self.fine_n - 1) % (self.coarse_n - 1) != 0:
            raise GeometryError(
                f"fine step count {self.fine_n - 1} is not a multiple of coarse step count {self.coarse_n - 1}"
            )
        lower, upper = self.plate_rows()
        if lower == upper:
            raise GeometryError(
                f"resolution error: both plate rows snap to fine row {lower} (d={self.d}, fine_n={self.fine_n})"
            )
        if self.d < 1.0 and (lower <= 0 or upper >= self.fine_n - 1):
            raise GeometryError(
                f"degenerate geometry: plate row snaps onto the outer wall (rows {lower}, {upper}, d={self.d})"
            )

    def plate_rows(self) -> tuple[int, int]:
        """(lower, upper) fine-grid rows of the plates after snapping.

        Each plate row y = 0.5 -/+ d/2 snaps to the nearest fine-grid row,
        so the geometric placement error is at most h/2.
        """
        m = self.fine_n - 1
        lower = int(round((0.5 - self.d / 2.0) * m))
        upper = int(round((0.5 + self.d / 2.0) * m))
        return lower, upper

    def plate_columns(self) -> tuple[int, int]:
        """Inclusive fine-grid column span [c0, c1] of both plates."""
        m = self.fine_n - 1
        return int(round(self.a * m)), int(round(self.b * m))


@dataclass
class BoundaryMask:
    """Dirichlet data on the fine grid: which nodes are fixed, and at what value."""

    fixed: np.ndarray
    value: np.ndarray

    def __post_init__(self) -> None:
        self.fixed = np.asarray(self.fixed, dtype=bool)
        self.value = np.asarray(self.value, dtype=np.float64)
        if self.fixed.ndim != 2 or self.fixed.shape[0] != self.fixed.shape[1]:
            raise ValueError(f"fixed mask must be square, got shape {self.fixed.shape}")
        if self.value.shape != self.fixed.shape:
            raise ValueError(f"value shape {self.value.shape} does not match mask shape {self.fixed.shape}")
        if not np.isfinite(self.value).all():
            raise ValueError("value must be finite at every node")
        if np.any((self.value != 0.0) > self.fixed):
            raise ValueError("value must be zero at non-fixed nodes")

    @property
    def n(self) -> int:
        return self.fixed.shape[0]


@dataclass
class FieldGrid:
    """A square potential grid. units is 'volts' or 'normalized' (divided by v0)."""

    values: np.ndarray
    units: str = "volts"

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2 or self.values.shape[0] != self.values.shape[1]:
            raise ValueError(f"field grid must be square, got shape {self.values.shape}")
        if self.units not in ("volts", "normalized"):
            raise ValueError(f"unknown units {self.units!r}")

    @property
    def n(self) -> int:
        return self.values.shape[0]


def build_boundary_mask(config: CapacitorConfig) -> BoundaryMask:
    """Assemble the Dirichlet mask for one capacitor configuration.

    The outer box is grounded (0 V). The two plate segments are fixed at
    +v0 (upper) and -v0 (lower), on the rows CapacitorConfig has checked.
    """
    n = config.fine_n
    lower, upper = config.plate_rows()
    fixed = np.zeros((n, n), dtype=bool)
    value = np.zeros((n, n), dtype=np.float64)
    fixed[0, :] = fixed[-1, :] = fixed[:, 0] = fixed[:, -1] = True

    c0, c1 = config.plate_columns()
    fixed[upper, c0 : c1 + 1] = True
    value[upper, c0 : c1 + 1] = config.v0
    fixed[lower, c0 : c1 + 1] = True
    value[lower, c0 : c1 + 1] = -config.v0
    return BoundaryMask(fixed=fixed, value=value)


def optimal_omega(n: int) -> float:
    """The asymptotically optimal SOR relaxation factor for an n x n grid."""
    if n < 3:
        raise ValueError(f"grid side must be at least 3, got {n}")
    return 2.0 / (1.0 + math.sin(math.pi / n))


def _check_solver(omega: float | None = None, tol: float | None = None, max_sweeps: int | None = None) -> None:
    """solve_sor's argument checks; an argument left None is not checked."""
    if omega is not None and not (1.0 <= omega < 2.0):
        raise ValueError(f"omega must lie in [1, 2), got {omega}")
    if tol is not None and not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    if max_sweeps is not None and max_sweeps < 1:
        raise ValueError(f"max_sweeps must be at least 1, got {max_sweeps}")


def solve_sor(
    mask: BoundaryMask,
    omega: float | None = None,
    tol: float | None = None,
    max_sweeps: int = 100_000,
) -> FieldGrid:
    """Relax the 5-point Laplace stencil to convergence with SOR.

    Free nodes start at zero and are updated in red-black order; Dirichlet
    nodes are never touched. omega defaults to the optimal value
    2/(1 + sin(pi/n)) for this stencil; tol defaults to 1e-6 times the
    largest prescribed magnitude.

    The sweep loop stops once the max absolute update of a full sweep is
    small enough that the estimated solution error is below tol. The decay
    ratio of successive sweep updates over a trailing window estimates the
    convergence factor rho, and the update threshold tol*(1-rho)/rho
    (capped at tol, scaled by a safety margin) converts the update size
    into a solution-error target. The returned grid therefore always
    satisfies the weaker guarantee "max update in the final sweep < tol".

    Raises ConvergenceError (carrying the last update) when max_sweeps is
    exhausted first, or at once when a sweep's update is not finite.
    """
    return FieldGrid(values=_solve([mask], [""], mask.n, omega, tol, max_sweeps)[0])


def _parity(g: np.ndarray) -> np.ndarray:
    """The (2, 2, h, w) view lattice[a, b, I, J] = g[2I + a, 2J + b] of a (2h, 2w) grid g."""
    return g.reshape(len(g) // 2, 2, -1, 2).transpose(1, 3, 0, 2)


def _solve(masks, names: list, n: int, omega: float | None = None, tol: float | None = None,
           max_sweeps: int = 100_000) -> np.ndarray:
    """Solve len(names) n x n masks as one stack; solve_sor's keywords apply to each.

    Returns the (k, n, n) solved grids, k = len(names), grid s that of the
    s-th mask. Each mask is written, as masks yields it, into two
    zero-padded (k, 2w, 2w) grid stacks, w = (n + 1) // 2: its Dirichlet
    values, and free, true at its free nodes off the walls. The reference
    to the last mask is then dropped, so a caller can hand over a
    generator and keep no mask past its write. Each stack is copied
    through _parity into a (2, 2, k*w, w) parity lattice block,
    block[a, b, s*w + I, J] being node (2I + a, 2J + b) of sample s, which
    takes the stack's name and so frees it before the next block is made.
    Once _relax has freed its scratch, the value block is written out once
    through _parity, the one map between grid and lattice. A sample that
    runs out of sweeps, or whose update is not finite, fails the solve with
    _relax's ConvergenceError, its message led by names[s].
    """
    if omega is None:
        omega = optimal_omega(n)
    _check_solver(omega, tol, max_sweeps)
    w, k = (n + 1) // 2, len(names)
    lattice = np.zeros((k, 2 * w, 2 * w))  # in grid layout until every mask is written
    free = np.zeros((k, 2 * w, 2 * w), dtype=bool)
    tols = []
    for s, mask in enumerate(masks):
        np.copyto(lattice[s, :n, :n], mask.value, where=mask.fixed)
        np.logical_not(mask.fixed[1:-1, 1:-1], out=free[s, 1 : n - 1, 1 : n - 1])  # walls never move
        tols.append(1e-6 * (max(mask.value.max(), -mask.value.min()) or 1.0) if tol is None else tol)
    mask = None  # no mask outlives its write
    # The bool block first: made after the value block, it left perfbench
    # generate's peak RSS about 0.5 MiB higher (where the heap put the blocks).
    free = _parity(free.reshape(-1, 2 * w)).copy()
    lattice = _parity(lattice.reshape(-1, 2 * w)).copy()
    _relax(lattice.reshape(2, 2, -1), free.reshape(2, 2, -1), w, omega, tols, max_sweeps, names)
    grids = np.empty((k, 2 * w, 2 * w))
    _parity(grids.reshape(-1, 2 * w))[...] = lattice
    return grids[:, :n, :n]


@np.errstate(over="ignore", invalid="ignore")
def _relax(flat: np.ndarray, free: np.ndarray, w: int, omega: float, tols: list, max_sweeps: int, names: list):
    """Run red-black SOR sweeps in place on k samples laid end to end in the (2, 2, k*w*w) block flat.

    Sample s is nodes s*w*w to (s+1)*w*w of each lattice, and only the nodes
    where free holds move. Red ((i+j) even) and black nodes neighbour only
    each other. In flat lattice (a, b), node m = I*w + J has its up and down
    neighbours at m - (1-a)*w and w further on in lattice (1-a, b), its left
    and right ones at m - (1-b) and 1 further on in lattice (a, 1-b). So a
    pass reads five contiguous slices of one length, from its first to its
    last free node, across every sample. The nodes in that span that must
    not move (walls, row wrap-around, padding, interior Dirichlet nodes and
    the samples that have stopped) get a -0.0 update from a precomputed
    index list, which leaves their bits as they are. A free node reads only
    nodes of its own sample, since each sample's walls never move, so the
    per-node arithmetic is that of a sweep over its own n x n grid: each
    sample's result is bit-identical to solving it alone.

    Each sample keeps its own tol, update history and stopping sweep; its
    max update per pass is one segment of a maximum.reduceat over the pass.
    A sample that stops is frozen: its nodes join the held ones. All pass
    scratch is local, so it is freed before the caller makes its output.

    Returns once every sample has stopped. Raises ConvergenceError, its
    message led by names[s] and carrying the last update and the sweep,
    for the lowest sample s whose update is not finite, at the sweep where
    it became so (such a sample can never stop, so it is not swept on), or
    for the lowest sample s still moving when max_sweeps ran out. That
    error is the one report of it: the sweeps run with numpy's overflow and
    invalid-value warnings off.
    """
    size = w * w
    # One update buffer, as long as a lattice and sliced by each pass. It
    # starts on a 64-byte boundary: where malloc puts it depends on every
    # earlier allocation in the process, and off that boundary a solve
    # measured up to a third slower.
    buffer = np.empty(free.shape[2] + 7)
    buffer = buffer[(-buffer.ctypes.data % 64) // 8 :][: free.shape[2]]
    passes, maxima = _passes(flat, free, w, buffer, len(tols))

    window = 20  # sweeps between the two update samples used for the rho estimate
    safety = 0.2
    updates: list[list[float]] = [[] for _ in tols]
    moving = list(range(len(tols)))
    for sweep in range(1, max_sweeps + 1):
        for target, up, down, left, right, hold, buf, starts, out in passes:
            np.add(up, down, out=buf)
            buf += left
            buf += right
            buf *= 0.25
            buf -= target
            buf *= omega
            buf[hold] = -0.0
            target += buf
            np.abs(buf, out=buf)
            np.maximum.reduceat(buf, starts, out=out)
        last = maxima.max(axis=0, initial=0.0).tolist()
        still = []
        for s in moving:
            if not math.isfinite(last[s]):
                message = f"{names[s]}SOR update is not finite at sweep {sweep} (last update {last[s]:.3e})"
                raise ConvergenceError(message, residual=last[s], sweeps=sweep)
            history, tol = updates[s], tols[s]
            history.append(last[s])
            if last[s] == 0.0 or last[s] < 1e-3 * tol:
                continue
            if sweep > window and history[-1 - window] > 0.0:
                rho = (last[s] / history[-1 - window]) ** (1.0 / window)
                rho = min(max(rho, 1e-6), 0.999999)
                if last[s] < safety * tol * min(1.0, (1.0 - rho) / max(rho, 0.5)):
                    continue
            still.append(s)
        if not still:
            return
        if len(still) < len(moving):
            for s in set(moving).difference(still):
                free[:, :, s * size : (s + 1) * size] = False
            moving = still
            passes, maxima = _passes(flat, free, w, buffer, len(tols))
    s = moving[0]
    message = f"{names[s]}SOR did not reach tol={tols[s]:.3e} within {max_sweeps} sweeps (last update {last[s]:.3e})"
    raise ConvergenceError(message, residual=last[s], sweeps=max_sweeps)


def _passes(flat: np.ndarray, free: np.ndarray, w: int, buffer: np.ndarray, k: int) -> tuple:
    """The red and black passes of _relax over the free nodes of flat, in
    sweep order, and the (passes, k) table of each sample's max update per
    pass. A pass holds its five slices, its held nodes, its update buffer,
    the starts of its samples' segments in that buffer, and its row of the
    table from the first sample it reaches to the last; a sample it does
    not reach has no free node in it and keeps 0 there."""
    size = w * w
    passes = []
    maxima = np.zeros((4, k))
    for a, b in ((1, 1), (0, 0), (1, 0), (0, 1)):
        moves = free[a, b]
        if moves.any():
            lo, hi = int(moves.argmax()), len(moves) - int(moves[::-1].argmax())
            up, left, span = lo - (1 - a) * w, lo - (1 - b), hi - lo
            first, end = lo // size, (hi - 1) // size + 1
            starts = np.maximum(np.arange(first, end) * size - lo, 0)
            passes.append((
                flat[a, b, lo:hi],
                flat[1 - a, b, up : up + span],
                flat[1 - a, b, up + w : up + w + span],
                flat[a, 1 - b, left : left + span],
                flat[a, 1 - b, left + 1 : left + 1 + span],
                np.flatnonzero(~moves[lo:hi]),
                buffer[:span],
                starts,
                maxima[len(passes), first:end],
            ))
    return passes, maxima[: len(passes)]


def downsample(grid: FieldGrid, coarse_n: int) -> FieldGrid:
    """Keep every k-th node per side so that coarse_n nodes remain."""
    if coarse_n < 2:
        raise ValueError(f"coarse_n must be at least 2, got {coarse_n}")
    if (grid.n - 1) % (coarse_n - 1) != 0:
        raise ValueError(f"cannot downsample {grid.n} nodes per side to {coarse_n}: step counts not divisible")
    k = (grid.n - 1) // (coarse_n - 1)
    return FieldGrid(values=grid.values[::k, ::k].copy(), units=grid.units)


@dataclass
class Dataset:
    """Flattened coarse fields, one row per separation d, normalized by v0."""

    grid_n: int
    v0: float
    d: np.ndarray
    fields: np.ndarray

    def __post_init__(self) -> None:
        self.d = np.asarray(self.d, dtype=np.float64)
        self.fields = np.asarray(self.fields, dtype=np.float64)
        if self.d.ndim != 1:
            raise ValueError("d must be a 1-D array")
        if self.grid_n < 1:
            raise ValueError(f"grid side must be at least 1, got grid={self.grid_n}")
        width = self.grid_n * self.grid_n
        if self.fields.shape != (self.d.shape[0], width):
            raise ValueError(
                f"fields shape {self.fields.shape} does not match {self.d.shape[0]} samples of width {width}"
            )
        if not (math.isfinite(self.v0) and self.v0 > 0.0):
            raise ValueError(f"v0 must be finite and positive, got {self.v0}")
        if not (np.isfinite(self.d).all() and np.isfinite(self.fields).all()):
            raise ValueError("d and fields must be finite")

    def __len__(self) -> int:
        return int(self.d.shape[0])

    def field_grid(self, index: int) -> FieldGrid:
        """The index-th sample reshaped to its square grid (normalized units)."""
        side = self.grid_n
        return FieldGrid(values=self.fields[index].reshape(side, side).copy(), units="normalized")


def _worker_count(samples: int) -> int:
    """How many processes generate_dataset solves its samples in: one per
    available CPU but no more than samples, and 1 (this process) where fork
    is not a start method."""
    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(samples, cpus))


# The most nodes per lattice in one stack: those of one fine_n=401 lattice,
# 91 samples at fine_n=41, 15 at 101, 3 at 201. Two fine_n=401 samples in
# one stack, past L2, ran 0.90 times as fast as the two solved one by one.
_STACK_NODES = 201 * 201


def _stacks(configs: list, workers: int) -> list:
    """generate_dataset's configs cut into contiguous, evenly sized stacks:
    as few as _STACK_NODES allows, in whole rounds of one per worker."""
    if not configs:
        return []
    most = max(1, _STACK_NODES // ((configs[0].fine_n + 1) // 2) ** 2)
    count = min(len(configs), workers * -(-len(configs) // (most * workers)))
    cuts = [len(configs) * i // count for i in range(count + 1)]
    return [configs[lo:hi] for lo, hi in zip(cuts, cuts[1:])]


def _solve_stack(configs: list, solver: dict) -> np.ndarray:
    """generate_dataset's one work function, in the pool and in this process:
    solve one stack of samples and return their (len(configs), coarse_n**2)
    coarse fields, flattened and divided by v0. It is top-level and takes
    picklable arguments, so the pool sends it by name.

    It builds each mask from its config, a few bytes, where a mask is
    megabytes, and drops it once it is written into the stack. Each row is
    downsample of its sample's solved grid.
    """
    head = configs[0]
    names = [f"sample d={config.d!r}: " for config in configs]
    grids = _solve((build_boundary_mask(config) for config in configs), names, head.fine_n, **solver)
    return np.array([downsample(FieldGrid(values=grid), head.coarse_n).values.ravel() / head.v0 for grid in grids])


def generate_dataset(d_values, **options) -> Dataset:
    """Solve one capacitor per separation value and collect the coarse fields.

    options are CapacitorConfig's geometry fields (a, b, v0, fine_n,
    coarse_n) and solve_sor's keywords (omega, tol, max_sweeps); one left
    out keeps its default there. Samples are solved independently from a
    cold start and stored in ascending d order. The solver options and every
    geometry are checked before the first solve starts. Solver and geometry
    failures are re-raised with the offending d in the message. Each field
    is downsample of its sample's solved fine grid, flattened row-major and
    divided by v0, so entries lie in [-1, 1].

    The samples are cut into contiguous runs of ascending d, and each run
    is solved as one stack: one lattice block that every SOR pass sweeps
    at once, with each sample's own stopping sweep (see _relax). A stack
    holds at most _STACK_NODES nodes per lattice, so at fine_n=401 it is
    one sample, and at fine_n=41 up to 91 share each numpy call. The
    stacks come in whole rounds of one per worker. They run in a fork pool
    with one worker per available CPU, made and shut down within the call,
    and each stack's rows are written into the dataset as they come back;
    a single sample, a single CPU or a platform without fork solves in this
    process. Each sample's arithmetic is that of solving it alone, in any
    stack and any worker, so the dataset has the same bytes either way.
    """
    solver = {key: options.pop(key) for key in ("omega", "tol", "max_sweeps") if key in options}
    _check_solver(**solver)
    configs = []
    for dv in sorted(float(x) for x in d_values):
        try:
            configs.append(CapacitorConfig(d=dv, **options))
        except GeometryError as exc:
            raise GeometryError(f"sample d={dv!r}: {exc}") from exc
    coarse_n = options.get("coarse_n", CapacitorConfig.coarse_n)
    rows = np.empty((len(configs), coarse_n * coarse_n))
    workers = _worker_count(len(configs))
    # fork, not spawn or forkserver: spawn re-imports numpy in every worker
    # of every call (+40% CPU on two fine_n=401 solves), and forkserver
    # workers are not children of this process, so their CPU time escapes
    # RUSAGE_CHILDREN. The workers run elementwise numpy only, no BLAS, and
    # OpenBLAS stops its thread pool before a fork (its pthread_atfork
    # handler), so the children do not inherit a held BLAS lock.
    pool = None
    if workers > 1:
        pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    stacks = _stacks(configs, workers)
    try:
        first = 0
        for block in (pool.map if pool else map)(_solve_stack, stacks, repeat(solver)):
            rows[first : first + len(block)] = block
            first += len(block)
    finally:
        if pool is not None:
            # After a failed stack, the stacks not yet handed to a worker are dropped.
            pool.shutdown(cancel_futures=True)
    v0 = options.get("v0", CapacitorConfig.v0)
    return Dataset(grid_n=coarse_n, v0=v0, d=np.asarray([c.d for c in configs], dtype=np.float64), fields=rows)


def save_dataset(dataset: Dataset, path) -> None:
    """Write a dataset as comma-separated text, one sample per line.

    Header: grid=<n>,count=<m>,v0=<v0>. Each record holds d followed by
    the grid_n^2 normalized potentials. Floats are written with repr so a
    save/load round trip is bit-exact.
    """
    head = {"grid": dataset.grid_n, "count": len(dataset), "v0": float(dataset.v0)}
    with _writing(path) as fh:
        fh.write(_header("", head, ",") + "\n")
        fh.writelines(f"{_text(dv)},{_row(row)}\n" for dv, row in zip(dataset.d, dataset.fields))


def load_dataset(path) -> Dataset:
    """Read a dataset written by save_dataset."""
    with _reading(path, "dataset") as lines:
        head = lines.header("", {"grid": int, "count": int, "v0": float}, ",")
        table = lines.rows(head["count"], head["grid"] ** 2 + 1, "record")
        return Dataset(grid_n=head["grid"], v0=head["v0"], d=table[:, 0].copy(), fields=table[:, 1:].copy())
