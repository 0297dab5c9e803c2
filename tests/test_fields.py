"""Solver and dataset tests, anchored on a dense direct-solve oracle."""

import hashlib
import math
import multiprocessing
import os
import pathlib
import pickle
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from capinv import fields
from capinv.fields import (
    BoundaryMask,
    CapacitorConfig,
    ConvergenceError,
    FieldGrid,
    GeometryError,
    build_boundary_mask,
    downsample,
    generate_dataset,
    load_dataset,
    optimal_omega,
    save_dataset,
    solve_sor,
)
from capinv.textio import _row
from test_network import traced_peak_rise


# Floats whose text form is hardest to read back bit for bit: signed zero,
# the smallest subnormal and normal, the largest finite value, and values
# repr writes in exponent or shortest form.
EDGE_VALUES = [-0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 1e-05, 1e16, 0.1]


# Solves a small dataset and writes its raw bytes, after checking that the
# dispatch targets named in NPY_DISABLE_CPU_FEATURES are really off.
_SIMD_PATH_SCRIPT = """
import os, sys
try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:
    from numpy.core._multiarray_umath import __cpu_features__
from capinv import fields
still_on = [t for t in os.environ["NPY_DISABLE_CPU_FEATURES"].split() if __cpu_features__.get(t)]
if still_on:
    sys.exit(f"dispatch targets still enabled: {still_on}")
ds = fields.generate_dataset([0.3, 0.6], fine_n=41)
sys.stdout.buffer.write(ds.d.tobytes() + ds.fields.tobytes())
"""


# Starts OpenBLAS's threads with a matrix product, checks that they exist
# where /proc lists threads, then solves a dataset in the fork pool and
# writes its raw bytes.
_FORK_AFTER_BLAS_SCRIPT = """
import os, sys
import numpy as np
a = np.random.default_rng(0).normal(size=(256, 256))
a @ a
if os.path.isdir("/proc/self/task") and len(os.listdir("/proc/self/task")) < 2:
    sys.exit("no BLAS thread is running")
from capinv import fields
ds = fields.generate_dataset(POOLED_D, fine_n=41)
sys.stdout.buffer.write(ds.d.tobytes() + ds.fields.tobytes())
"""

# Separations generate_dataset solves in its pool where the host has two
# CPUs and fork.
POOLED_D = [0.62, 0.2, 0.41, 0.83]
needs_pool = pytest.mark.skipif(
    fields._worker_count(len(POOLED_D)) < 2, reason="one CPU, or no fork: generate_dataset solves in-process"
)


def dense_solve(mask: BoundaryMask) -> np.ndarray:
    """Assemble the 5-point Laplacian system over the free nodes and solve it
    directly. Independent of the SOR path; only valid when the border is
    fixed (every free node then has four in-grid neighbours)."""
    n = mask.n
    free = ~mask.fixed
    assert not free[0, :].any() and not free[-1, :].any()
    assert not free[:, 0].any() and not free[:, -1].any()
    order = np.argwhere(free)
    index = -np.ones((n, n), dtype=int)
    for k, (i, j) in enumerate(order):
        index[i, j] = k
    m = len(order)
    a = np.zeros((m, m))
    b = np.zeros(m)
    for k, (i, j) in enumerate(order):
        a[k, k] = 4.0
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            ii, jj = i + di, j + dj
            if free[ii, jj]:
                a[k, index[ii, jj]] = -1.0
            else:
                b[k] += mask.value[ii, jj]
    out = mask.value.copy()
    if m:
        out[free] = np.linalg.solve(a, b)
    return out


def random_mask(n: int, seed: int, n_interior: int = 5) -> BoundaryMask:
    rng = np.random.default_rng(seed)
    fixed = np.zeros((n, n), dtype=bool)
    value = np.zeros((n, n))
    fixed[0, :] = fixed[-1, :] = fixed[:, 0] = fixed[:, -1] = True
    value[0, :] = rng.uniform(-1, 1)
    value[-1, :] = rng.uniform(-1, 1)
    for _ in range(n_interior):
        i = rng.integers(1, n - 1)
        j = rng.integers(1, n - 1)
        fixed[i, j] = True
        value[i, j] = rng.uniform(-1, 1)
    return BoundaryMask(fixed=fixed, value=value)


def reference_sor(mask: BoundaryMask, omega: float | None = None) -> np.ndarray:
    """Red-black SOR on the plain n x n grid through strided views, with the
    per-node arithmetic, pass order and stopping rule of solve_sor."""
    n = mask.n
    omega = optimal_omega(n) if omega is None else omega
    tol = 1e-6 * (float(np.max(np.abs(mask.value))) or 1.0)
    v = np.where(mask.fixed, mask.value, 0.0)
    passes = [(i0, j0, (~mask.fixed[i0 : n - 1 : 2, j0 : n - 1 : 2]).astype(np.float64))
              for i0, j0 in ((1, 1), (2, 2), (1, 2), (2, 1))]
    updates = []
    for _ in range(100_000):
        dmax = 0.0
        for i0, j0, free in passes:
            if free.size:
                target = v[i0 : n - 1 : 2, j0 : n - 1 : 2]
                buf = v[i0 - 1 : n - 2 : 2, j0 : n - 1 : 2] + v[i0 + 1 : n : 2, j0 : n - 1 : 2]
                buf += v[i0 : n - 1 : 2, j0 - 1 : n - 2 : 2]
                buf += v[i0 : n - 1 : 2, j0 + 1 : n : 2]
                buf *= 0.25
                buf -= target
                buf *= omega
                buf *= free
                target += buf
                dmax = max(dmax, float(np.abs(buf).max()))
        updates.append(dmax)
        if dmax == 0.0 or dmax < 1e-3 * tol:
            return v
        if len(updates) > 20 and updates[-21] > 0.0:
            rho = min(max((dmax / updates[-21]) ** (1.0 / 20), 1e-6), 0.999999)
            if dmax < 0.2 * tol * min(1.0, (1.0 - rho) / max(rho, 0.5)):
                return v
    raise AssertionError("reference sweep did not converge")


def stacked_sor(masks, **kwargs) -> list:
    """Each sample's grid from one stacked solve of same-size masks."""
    return list(fields._solve(masks, [f"sample {s}: " for s in range(len(masks))], masks[0].n, **kwargs))


def closed_mask(n: int, seed: int, side: int) -> BoundaryMask:
    """A mask whose free nodes are a side x side square in a corner of the
    interior. With none it stops at sweep 1, and with one at omega=1 at
    sweep 2, where a whole interior takes dozens of sweeps or more."""
    rng = np.random.default_rng(seed)
    fixed = np.ones((n, n), dtype=bool)
    fixed[1 : 1 + side, 1 : 1 + side] = False
    return BoundaryMask(fixed=fixed, value=np.where(fixed, rng.uniform(-1, 1, (n, n)), 0.0))


class TestSolveSor:
    def test_matches_dense_solve_on_capacitor(self):
        mask = build_boundary_mask(CapacitorConfig(d=0.5, fine_n=21, coarse_n=21))
        got = solve_sor(mask).values
        want = dense_solve(mask)
        assert np.max(np.abs(got - want)) < 1e-6

    @pytest.mark.parametrize("n,seed", [(8, 0), (15, 1), (21, 2), (22, 3), (41, 4)])
    def test_matches_dense_solve_on_random_masks(self, n, seed):
        mask = random_mask(n, seed)
        got = solve_sor(mask).values
        want = dense_solve(mask)
        assert np.max(np.abs(got - want)) < 1e-6

    @pytest.mark.parametrize("omega", [1.0, 1.5, 1.9, None])
    def test_omega_changes_path_not_solution(self, omega):
        mask = build_boundary_mask(CapacitorConfig(d=0.36, fine_n=41, coarse_n=41))
        want = dense_solve(mask)
        got = solve_sor(mask, omega=omega).values
        assert np.max(np.abs(got - want)) < 1e-5

    def test_fixed_nodes_untouched(self):
        mask = build_boundary_mask(CapacitorConfig(d=0.5, fine_n=21, coarse_n=21))
        got = solve_sor(mask).values
        assert np.array_equal(got[mask.fixed], mask.value[mask.fixed])

    def test_maximum_principle(self):
        # A discrete harmonic function attains its extremes on the fixed set.
        mask = random_mask(25, seed=9)
        got = solve_sor(mask).values
        lo = mask.value[mask.fixed].min()
        hi = mask.value[mask.fixed].max()
        assert got.min() >= lo - 1e-5
        assert got.max() <= hi + 1e-5

    def test_all_zero_boundary_gives_zero_field(self):
        fixed = np.zeros((9, 9), dtype=bool)
        fixed[0, :] = fixed[-1, :] = fixed[:, 0] = fixed[:, -1] = True
        mask = BoundaryMask(fixed=fixed, value=np.zeros((9, 9)))
        got = solve_sor(mask).values
        assert np.array_equal(got, np.zeros((9, 9)))

    def test_tighter_tol_is_closer(self):
        mask = build_boundary_mask(CapacitorConfig(d=0.5, fine_n=41, coarse_n=41))
        want = dense_solve(mask)
        loose = np.max(np.abs(solve_sor(mask, tol=1e-3).values - want))
        tight = np.max(np.abs(solve_sor(mask, tol=1e-9).values - want))
        assert tight < loose
        assert tight < 1e-8

    def test_mesh_refinement_converges(self):
        # Halving the step should shrink the disagreement on shared nodes.
        coarse = {}
        for fine_n in (41, 81, 161):
            config = CapacitorConfig(d=0.5, fine_n=fine_n, coarse_n=21)
            coarse[fine_n] = downsample(solve_sor(build_boundary_mask(config)), 21).values
        err_lo = np.max(np.abs(coarse[81] - coarse[41]))
        err_hi = np.max(np.abs(coarse[161] - coarse[81]))
        assert err_hi < err_lo

    def test_sweeps_exhausted_raises(self):
        mask = build_boundary_mask(CapacitorConfig(d=0.5, fine_n=41, coarse_n=41))
        with pytest.raises(ConvergenceError) as err:
            solve_sor(mask, max_sweeps=2)
        assert err.value.sweeps == 2
        assert err.value.residual > 0.0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_non_finite_update_stops_the_solve(self):
        # The 5-point sums overflow at v0=1e308. Such an update can never
        # fall below tol, so the solve stops at the sweep that makes it and
        # says so, instead of sweeping out its budget and blaming convergence.
        with pytest.raises(ConvergenceError, match=r"^sample d=0\.3: SOR update is not finite at sweep 1 ") as err:
            generate_dataset([0.3, 0.5], v0=1e308, fine_n=41, coarse_n=21)
        assert (err.value.sweeps, err.value.residual) == (1, math.inf)

    def test_rejects_bad_arguments(self):
        mask = build_boundary_mask(CapacitorConfig(d=0.5, fine_n=21, coarse_n=21))
        with pytest.raises(ValueError):
            solve_sor(mask, omega=2.0)
        with pytest.raises(ValueError):
            solve_sor(mask, omega=0.5)
        with pytest.raises(ValueError):
            solve_sor(mask, tol=0.0)
        for tol in (math.nan, math.inf):
            with pytest.raises(ValueError, match="tol must be finite"):
                solve_sor(mask, tol=tol)
        with pytest.raises(ValueError):
            solve_sor(mask, max_sweeps=0)

    # sha256 of solve_sor(...).values.tobytes(), recorded from the strided
    # n x n sweep the lattice layout replaced. They pin the arithmetic, the
    # pass order and the stopping rule bit for bit: odd and even n, omega=1,
    # and n=3 and n=4, where some of the four passes are empty.
    @pytest.mark.parametrize(
        "make_mask,kwargs,digest",
        [
            (lambda: build_boundary_mask(CapacitorConfig(d=0.36, fine_n=41, coarse_n=21)), {},
             "3661d443b9fd568d85281be24ea3ee075b4f7176ebabc8b42de984c99751ecc8"),
            (lambda: build_boundary_mask(CapacitorConfig(d=0.36, fine_n=101, coarse_n=21)), {},
             "fe4388f715dfcef9be744dd59f293749496aea366d87ffe6b7cd470bb81aaec7"),
            (lambda: random_mask(22, 3), {},
             "e22bbb41f37d8574bded3fce794a9421d35d303392aff09d7b17abbf746ebdd3"),
            (lambda: random_mask(8, 0), {"omega": 1.0},
             "9e15d2075a3d3d5753bc422ec1dbbff8f95b4ddeb62e1c6d031c67270c0a2287"),
            (lambda: random_mask(3, 0, n_interior=0), {},
             "1229ed220707d79d136c955a4a903834998990ebc389823886e451e30f4d0dd0"),
            (lambda: random_mask(4, 1, n_interior=0), {},
             "380a5e4bb5bc255a07da57f2910a12c2508434c39a50702a5f83e8428ffdc745"),
        ],
        ids=["capacitor-41", "capacitor-101", "random-22", "random-8-omega1", "random-3", "random-4"],
    )
    def test_bits_pinned(self, make_mask, kwargs, digest):
        got = solve_sor(make_mask(), **kwargs).values
        assert hashlib.sha256(got.tobytes()).hexdigest() == digest

    def test_bytes_match_reference_sweep(self):
        # Odd and even n, walls at random potentials and Dirichlet nodes
        # scattered inside and packed against the walls, so the padding, the
        # row wrap-around and held nodes at both ends of each pass all occur.
        for n in range(3, 30):
            for seed in range(3):
                rng = np.random.default_rng(1000 * n + seed)
                fixed = rng.random((n, n)) < 0.1
                fixed[[0, -1], :] = fixed[:, [0, -1]] = True
                fixed[[1, -2], rng.integers(0, n, 2)] = True
                fixed[rng.integers(0, n, 2), [1, -2]] = True
                mask = BoundaryMask(fixed=fixed, value=np.where(fixed, rng.uniform(-1, 1, (n, n)), 0.0))
                assert solve_sor(mask).values.tobytes() == reference_sor(mask).tobytes(), (n, seed)

    def test_walls_that_are_not_fixed_stay_at_zero(self):
        # A mask may leave outer-ring nodes free. The solver holds them at 0,
        # as the reference sweep does, so no pass ever updates a wall.
        for n in range(3, 26):
            for seed in range(3):
                rng = np.random.default_rng(2000 * n + seed)
                fixed = rng.random((n, n)) < 0.15
                mask = BoundaryMask(fixed=fixed, value=np.where(fixed, rng.uniform(-1, 1, (n, n)), 0.0))
                assert solve_sor(mask).values.tobytes() == reference_sor(mask).tobytes(), (n, seed)
        # A free node may hold -0.0, which equals zero; a free wall node
        # still starts, and so stays, at +0.0.
        base = random_mask(9, 0)
        fixed = base.fixed.copy()
        fixed[0, 4] = False
        mask = BoundaryMask(fixed=fixed, value=np.where(fixed, base.value, -0.0))
        assert solve_sor(mask).values.tobytes() == reference_sor(mask).tobytes()

    def test_each_sample_of_a_stack_has_the_bytes_of_its_own_solve(self):
        # Odd and even n, omega 1 and the default, Dirichlet nodes inside and
        # against the walls, walls left free, and samples with no free node,
        # a few free rows and a whole free interior, which stop at sweep 1, a
        # few sweeps in and many sweeps in, first, last and in between.
        for n in (5, 8, 13, 22):
            for omega in (None, 1.0):
                masks = []
                for seed in range(3):
                    rng = np.random.default_rng(3000 * n + seed)
                    fixed = rng.random((n, n)) < 0.15
                    if seed != 2:
                        fixed[[0, -1], :] = fixed[:, [0, -1]] = True
                    masks.append(BoundaryMask(fixed=fixed, value=np.where(fixed, rng.uniform(-1, 1, (n, n)), 0.0)))
                masks[1:1] = [closed_mask(n, n, 0), closed_mask(n, n + 1, 1)]
                masks += [closed_mask(n, n + 2, 0)]
                for order in (masks, masks[::-1]):
                    for mask, got in zip(order, stacked_sor(order, omega=omega)):
                        assert got.tobytes() == reference_sor(mask, omega).tobytes(), (n, omega)

    def test_a_fixed_node_keeps_its_bits_negative_zero_included(self):
        # A held node gets a -0.0 update, which leaves every value as it is,
        # where +0.0 would turn a -0.0 wall or Dirichlet node into +0.0.
        base = random_mask(9, 0)
        value = np.where(base.fixed, -0.0, 0.0)
        value[-1, :] = base.value[-1, :]
        mask = BoundaryMask(fixed=base.fixed, value=value)
        for got in (solve_sor(mask).values, *stacked_sor([mask, mask])):
            assert got[mask.fixed].tobytes() == mask.value[mask.fixed].tobytes()

    def test_a_stack_names_its_lowest_sample_out_of_sweeps(self):
        # At omega=1 the sample with no free node stops at sweep 1 and the one
        # with one free node at sweep 2; the two whole grids run out of
        # sweeps. The lowest of those is named, with the residual of its own
        # solve. No pass reaches the first sample, which must read 0 there
        # and not the update of the node after it, which a wall potential
        # moves from sweep 1 on.
        n = 21
        whole = [random_mask(n, 5), random_mask(n, 6)]
        masks = [closed_mask(n, 1, 0), whole[0], closed_mask(n, 2, 1), whole[1]]
        with pytest.raises(ConvergenceError) as alone:
            solve_sor(whole[0], omega=1.0, max_sweeps=8)
        with pytest.raises(ConvergenceError, match=r"^sample 1: SOR did not reach") as got:
            stacked_sor(masks, omega=1.0, max_sweeps=8)
        assert (got.value.residual, got.value.sweeps) == (alone.value.residual, 8)
        assert str(got.value) == "sample 1: " + str(alone.value)
        for mask, grid in zip(masks[::2], stacked_sor(masks[::2], omega=1.0, max_sweeps=2)):
            assert grid.tobytes() == reference_sor(mask, 1.0).tobytes()

    def test_peak_memory_is_bounded_by_the_lattice_block(self):
        # A capacitor solve peaks at about 2.13 lattice blocks of 4*w*w
        # float64s at fine_n=401 and 2.17 at 101: the block and the output
        # grid, plus the bool free mask. Pass scratch still alive when the
        # output grid is allocated reads 2.39 (the passes) to 2.66 (all of
        # it) at fine_n=401.
        for fine_n in (401, 101):
            mask = build_boundary_mask(CapacitorConfig(d=0.36, fine_n=fine_n, coarse_n=21))
            w = (mask.n + 1) // 2
            blocks = traced_peak_rise(lambda: solve_sor(mask)) / (4 * w * w * 8)
            assert blocks < 2.35, f"fine_n={fine_n}: {blocks:.3f} lattice blocks"

    def test_a_stack_job_holds_no_mask_past_its_write(self):
        # A job's peak is while a mask is built: the two grid stacks (1.13
        # lattice blocks), the mask (1.13) and its checks' temporaries, about
        # 2.5 at fine_n=401. A mask still held when the lattice block is made
        # reads 3.35.
        for fine_n, count in ((401, 1), (201, 3)):
            configs = [CapacitorConfig(d=0.36 + 0.1 * s, fine_n=fine_n) for s in range(count)]
            w = (fine_n + 1) // 2
            blocks = traced_peak_rise(lambda: fields._solve_stack(configs, {})) / (count * 4 * w * w * 8)
            assert blocks < 2.6, f"{fine_n}x{count}: {blocks:.3f} lattice blocks"

    def test_optimal_omega_value(self):
        assert optimal_omega(401) == pytest.approx(2.0 / (1.0 + np.sin(np.pi / 401)), rel=1e-15)
        with pytest.raises(ValueError):
            optimal_omega(2)


class TestGeometry:
    def test_plate_rows_snap_to_nearest(self):
        config = CapacitorConfig(d=0.36)
        assert config.plate_rows() == (128, 272)
        assert config.plate_columns() == (100, 300)

    def test_mask_values(self):
        config = CapacitorConfig(d=0.5, fine_n=21, coarse_n=21)
        mask = build_boundary_mask(config)
        lower, upper = config.plate_rows()
        assert (lower, upper) == (5, 15)
        assert np.all(mask.value[upper, 5:16] == 1.0)
        assert np.all(mask.value[lower, 5:16] == -1.0)
        assert np.all(mask.value[0, :] == 0.0)
        assert mask.fixed[0, :].all() and mask.fixed[:, -1].all()
        # nothing fixed between the plates except the walls
        assert not mask.fixed[(lower + upper) // 2, 1:-1].any()

    def test_full_separation_merges_plates_into_walls(self):
        config = CapacitorConfig(d=1.0, fine_n=21, coarse_n=21)
        mask = build_boundary_mask(config)
        c0, c1 = config.plate_columns()
        assert np.all(mask.value[-1, c0 : c1 + 1] == 1.0)
        assert np.all(mask.value[0, c0 : c1 + 1] == -1.0)
        assert mask.value[0, 0] == 0.0

    def test_wall_snap_below_full_separation_is_degenerate(self):
        with pytest.raises(GeometryError, match="degenerate"):
            build_boundary_mask(CapacitorConfig(d=0.999, fine_n=401, coarse_n=21))

    def test_coincident_rows_is_resolution_error(self):
        with pytest.raises(GeometryError, match="resolution"):
            build_boundary_mask(CapacitorConfig(d=0.02, fine_n=21, coarse_n=21))

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(d=-0.1),
            dict(d=1.1),
            dict(d=0.5, a=0.75, b=0.25),
            dict(d=0.5, a=0.5, b=0.5),
            dict(d=0.5, v0=0.0),
            dict(d=0.5, v0=math.inf),
            dict(d=0.5, v0=math.nan),
            dict(d=0.5, v0=1e-303),  # the default tol 1e-6*v0 is subnormal
            dict(d=0.5, v0=1e-320),  # and here zero
            dict(d=0.5, fine_n=2),
            dict(d=0.5, fine_n=400),  # 399 steps, not a multiple of 20
            dict(d=0.02, fine_n=21, coarse_n=21),  # both plate rows snap to row 10
            dict(d=0.999),  # a plate row snaps onto the wall while d < 1
            dict(d=0.5, coarse_n=1),  # no check before coarse_n's raises a GeometryError
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(GeometryError):
            CapacitorConfig(**kwargs)

    def test_mask_validation(self):
        fixed = np.zeros((5, 5), dtype=bool)
        value = np.zeros((5, 5))
        value[2, 2] = 1.0  # value on a free node
        with pytest.raises(ValueError):
            BoundaryMask(fixed=fixed, value=value)
        with pytest.raises(ValueError):
            BoundaryMask(fixed=np.zeros((4, 5), dtype=bool), value=np.zeros((4, 5)))
        with pytest.raises(ValueError, match=r"^value shape \(4, 4\) does not match mask shape \(5, 5\)$"):
            BoundaryMask(fixed=fixed, value=np.zeros((4, 4)))
        fixed[2, 2] = True
        for bad in (math.nan, math.inf):
            value[2, 2] = bad  # a fixed node with non-finite data
            with pytest.raises(ValueError, match="finite"):
                BoundaryMask(fixed=fixed, value=value)


class TestDownsample:
    def test_picks_every_kth_node(self):
        values = np.arange(81, dtype=float).reshape(9, 9)
        grid = FieldGrid(values=values)
        coarse = downsample(grid, 5)
        assert np.array_equal(coarse.values, values[::2, ::2])
        assert coarse.units == grid.units

    def test_identity_when_sizes_match(self):
        values = np.arange(25, dtype=float).reshape(5, 5)
        coarse = downsample(FieldGrid(values=values), 5)
        assert np.array_equal(coarse.values, values)

    def test_rejects_indivisible(self):
        with pytest.raises(ValueError):
            downsample(FieldGrid(values=np.zeros((9, 9))), 4)
        with pytest.raises(ValueError, match="^coarse_n must be at least 2, got 1$"):
            downsample(FieldGrid(values=np.zeros((9, 9))), 1)
        with pytest.raises(ValueError, match=r"^field grid must be square, got shape \(3, 4\)$"):
            FieldGrid(values=np.zeros((3, 4)))
        with pytest.raises(ValueError, match="^unknown units 'amps'$"):
            FieldGrid(values=np.zeros((3, 3)), units="amps")


class TestDataset:
    def test_generate_sorts_and_normalizes(self):
        ds = generate_dataset([0.7, 0.3, 0.5], fine_n=41, coarse_n=21)
        assert np.array_equal(ds.d, [0.3, 0.5, 0.7])
        assert ds.fields.shape == (3, 441)
        assert np.max(np.abs(ds.fields)) <= 1.0

    def test_potential_scales_linearly_with_v0(self):
        # Laplace solutions scale with the boundary data, so the stored
        # normalized fields must not depend on v0.
        lo = generate_dataset([0.5], v0=1.0, fine_n=41, coarse_n=21)
        hi = generate_dataset([0.5], v0=2.0, fine_n=41, coarse_n=21)
        assert np.allclose(lo.fields, hi.fields, atol=1e-9)

    def test_field_grid_units_and_shape(self):
        ds = generate_dataset([0.5], fine_n=41, coarse_n=21)
        grid = ds.field_grid(0)
        assert grid.units == "normalized"
        assert grid.values.shape == (21, 21)
        assert np.array_equal(grid.values.ravel(), ds.fields[0])

    def test_geometry_failure_names_the_sample(self):
        with pytest.raises(GeometryError, match=r"sample d=0\.999"):
            generate_dataset([0.5, 0.999], fine_n=401, coarse_n=21)

    def test_convergence_failure_names_the_sample(self):
        with pytest.raises(ConvergenceError, match=r"sample d=0\.5"):
            generate_dataset([0.5], fine_n=41, coarse_n=21, max_sweeps=1)

    def test_non_finite_data_rejected(self):
        with pytest.raises(GeometryError, match=r"sample d=0\.5: plate potential"):
            generate_dataset([0.5], v0=math.inf, fine_n=21, coarse_n=21)
        for v0 in (math.inf, math.nan):
            with pytest.raises(ValueError, match="v0 must be finite"):
                fields.Dataset(grid_n=2, v0=v0, d=[0.5], fields=np.zeros((1, 4)))
        with pytest.raises(ValueError, match="must be finite"):
            fields.Dataset(grid_n=2, v0=1.0, d=[0.5], fields=[[0.0, math.nan, 0.0, 0.0]])
        with pytest.raises(ValueError, match="must be finite"):
            fields.Dataset(grid_n=2, v0=1.0, d=[math.inf], fields=np.zeros((1, 4)))
        with pytest.raises(ValueError, match="^d must be a 1-D array$"):
            fields.Dataset(grid_n=2, v0=1.0, d=[[0.5]], fields=np.zeros((1, 4)))
        with pytest.raises(ValueError, match=r"^fields shape \(1, 5\) does not match 1 samples of width 4$"):
            fields.Dataset(grid_n=2, v0=1.0, d=[0.5], fields=np.zeros((1, 5)))

    def test_save_load_round_trip_is_bit_exact(self, tmp_path):
        ds = generate_dataset([0.3, 0.5], fine_n=41, coarse_n=21, v0=2.5)
        path = tmp_path / "ds.csv"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert back.grid_n == ds.grid_n
        assert back.v0 == ds.v0
        assert np.array_equal(back.d, ds.d)
        assert np.array_equal(back.fields, ds.fields)

    def test_an_integer_v0_is_written_as_a_float(self, tmp_path):
        ds = fields.Dataset(grid_n=2, v0=2, d=[0.5], fields=np.zeros((1, 4)))
        path = tmp_path / "int.ds"
        save_dataset(ds, path)
        assert path.read_text().startswith("grid=2,count=1,v0=2.0\n")
        back = load_dataset(path)
        assert back.v0 == 2.0 and isinstance(back.v0, float)
        assert np.array_equal(back.fields, ds.fields)

    def test_load_rejects_malformed(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("grid=21,count=2,v0=1.0\n0.5,1.0\n")
        with pytest.raises(ValueError):
            load_dataset(path)
        path.write_text("")
        with pytest.raises(ValueError):
            load_dataset(path)
        path.write_text("grid=2;count=1;v0=1.0\n0.5,0,0,0,0\n")
        with pytest.raises(ValueError, match=r"bad\.csv: malformed dataset header"):
            load_dataset(path)
        path.write_text("grid=2,count=2,v0=1.0\n0.5,0,0,0,0\n0.6,0,abc,0,0\n")
        with pytest.raises(ValueError, match=r"bad\.csv: record 1: .*'abc'"):
            load_dataset(path)
        path.write_text("grid=2,count=1,v0=1.0\n0.5,0,nan,0,0\n")
        with pytest.raises(ValueError, match=r"bad\.csv: d and fields must be finite"):
            load_dataset(path)

    def test_load_rejects_a_negative_grid(self, tmp_path):
        # (-2)^2 passes the width check; the grid side itself must be refused.
        path = tmp_path / "neg.ds"
        save_dataset(fields.Dataset(grid_n=2, v0=1.0, d=[0.5], fields=np.zeros((1, 4))), path)
        path.write_text(path.read_text().replace("grid=2,", "grid=-2,", 1))
        with pytest.raises(ValueError, match=r"neg\.ds: grid side must be at least 1, got grid=-2"):
            load_dataset(path)

    def test_round_trip_keeps_the_bits_of_edge_values(self, tmp_path):
        values = np.array(EDGE_VALUES + [-v for v in EDGE_VALUES])
        ds = fields.Dataset(grid_n=3, v0=0.1, d=values, fields=[np.roll(values, k)[:9] for k in range(len(values))])
        path = tmp_path / "edge.ds"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert back.d.tobytes() == ds.d.tobytes()
        assert back.fields.tobytes() == ds.fields.tobytes()

    def test_values_only_float_reads_load_as_float_reads_them(self, tmp_path):
        # The C reader rejects the underscore; the block is then read row by
        # row with float(), which takes it and the padded values.
        path = tmp_path / "odd.ds"
        path.write_text("grid=2,count=2,v0=1.0\n0.5,1_0, 0.25 ,0,0\n0.6,\t-2e-3,0,0,1\n")
        back = load_dataset(path)
        assert back.d.tolist() == [0.5, 0.6]
        assert back.fields.tolist() == [[10.0, 0.25, 0.0, 0.0], [-0.002, 0.0, 0.0, 1.0]]

    @pytest.mark.parametrize("separator", ["\x1c", "\x1d", "\x1e", "\x1f"])
    def test_information_separators_are_not_whitespace(self, tmp_path, separator):
        # np.loadtxt strips these around a value, float() rejects them.
        path = tmp_path / "sep.ds"
        path.write_text(f"grid=2,count=2,v0=1.0\n0.5,0,0,0,0\n0.6,0,{separator}0.25,0,0\n")
        message = f"record 1: could not convert string to float: {separator + '0.25'!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_dataset(path)

    def test_bad_block_fails_on_its_first_bad_row(self, tmp_path):
        path = tmp_path / "bad.ds"
        for text, message in [
            ("grid=2,count=3,v0=1.0\n0.5,0,abc,0,0\n", "record 0: could not convert string to float: 'abc'"),
            ("grid=2,count=3,v0=1.0\n0.5,0,0,0,0\n", "dataset ends before the record 1"),
            ("grid=2,count=2,v0=1.0\n0.5,0,0,0\n0.6,0,0,0\n", "record 0 has 4 values, expected 5"),
            ("grid=2,count=2,v0=1.0\n0.5,0,0,0,0\n0.6,0,0,0\n", "record 1 has 4 values, expected 5"),
        ]:
            path.write_text(text)
            with pytest.raises(ValueError, match=re.escape(f"bad.ds: {message}")):
                load_dataset(path)

    def test_empty_dataset_loads_without_warnings(self, tmp_path):
        path = tmp_path / "empty.ds"
        path.write_text("grid=2,count=0,v0=1.0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            back = load_dataset(path)
            assert len(back) == 0
            assert back.fields.shape == (0, 4)
            path.write_text("grid=2,count=0,v0=1.0\n0.5,0,0,0,0\n")
            with pytest.raises(ValueError, match="unexpected data after the dataset: '0.5,0,0,0,0'"):
                load_dataset(path)

    def test_bits_do_not_depend_on_numpy_simd_path(self):
        # SOR uses only elementwise add, subtract, multiply and abs, which
        # round the same at every SIMD width, so a dataset solved with
        # numpy's dispatch targets turned off has the same bytes.
        try:
            from numpy._core import _multiarray_umath as umath
        except ImportError:  # numpy 1.x
            from numpy.core import _multiarray_umath as umath
        targets = [t for t in getattr(umath, "__cpu_dispatch__", []) if umath.__cpu_features__.get(t)]
        if not targets:
            pytest.skip("numpy has no dispatch target enabled on this CPU")
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(targets))
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        out = subprocess.run(
            [sys.executable, "-c", _SIMD_PATH_SCRIPT], env=env, capture_output=True, check=True, timeout=120
        ).stdout
        ds = generate_dataset([0.3, 0.6], fine_n=41)
        assert out == ds.d.tobytes() + ds.fields.tobytes()

    def test_convergence_error_pickles_with_its_fields(self):
        back = pickle.loads(pickle.dumps(ConvergenceError("stalled", residual=0.25, sweeps=7)))
        assert type(back) is ConvergenceError
        assert (str(back), back.residual, back.sweeps) == ("stalled", 0.25, 7)

    def test_bad_geometry_fails_before_any_solve(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a solve or the pool started before the geometry check")

        monkeypatch.setattr(fields, "_solve", refuse)
        monkeypatch.setattr(fields, "ProcessPoolExecutor", refuse)
        with pytest.raises(GeometryError, match=r"sample d=0\.999: degenerate"):
            generate_dataset([0.5, 0.3, 0.999], fine_n=401)

    @pytest.mark.parametrize("option", [{"omega": 0.5}, {"omega": 2.0}, {"tol": 0.0}, {"tol": math.nan},
                                        {"max_sweeps": 0}])
    def test_bad_solver_option_fails_before_the_pool(self, monkeypatch, option):
        mask = build_boundary_mask(CapacitorConfig(d=0.5, fine_n=21, coarse_n=21))
        with pytest.raises(ValueError) as want:
            solve_sor(mask, **option)

        def refuse(*args, **kwargs):
            raise AssertionError("built before the solver options were checked")

        monkeypatch.setattr(fields, "ProcessPoolExecutor", refuse)
        monkeypatch.setattr(fields, "build_boundary_mask", refuse)
        with pytest.raises(ValueError) as got:
            generate_dataset(fields.TRAIN_D, fine_n=401, **option)
        assert type(got.value) is ValueError
        assert str(got.value) == str(want.value)

    def test_row_text_is_the_repr_of_each_float(self):
        values = EDGE_VALUES + [1e-7, 3, np.float32(0.1), -np.float32(1e-30)]
        assert _row(values) == ",".join(repr(float(x)) for x in values)
        for x in values:
            assert _row([x]) == repr(float(x))
        assert _row(np.asarray(EDGE_VALUES)) == ",".join(map(repr, EDGE_VALUES))

    @needs_pool
    def test_pool_keeps_the_bytes_of_one_call_per_d(self, monkeypatch):
        # The pool pickles its work function by name, so the count is on the
        # stacked solve the work function calls.
        calls = []
        solve = fields._solve

        def counted(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(fields, "_solve", counted)
        pooled = generate_dataset(POOLED_D, fine_n=41)
        assert not calls, "the pooled call solved in this process"
        single = [generate_dataset([dv], fine_n=41) for dv in sorted(POOLED_D)]
        assert len(calls) == len(POOLED_D)
        assert pooled.d.tobytes() == b"".join(ds.d.tobytes() for ds in single)
        assert pooled.fields.tobytes() == b"".join(ds.fields.tobytes() for ds in single)
        assert multiprocessing.active_children() == []

    @needs_pool
    def test_pool_keeps_the_bytes_when_forked_after_blas_threads_started(self):
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="2")
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        script = _FORK_AFTER_BLAS_SCRIPT.replace("POOLED_D", repr(POOLED_D))
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, check=True, timeout=120
        ).stdout
        single = [generate_dataset([dv], fine_n=41) for dv in sorted(POOLED_D)]
        assert out == b"".join(ds.d.tobytes() for ds in single) + b"".join(ds.fields.tobytes() for ds in single)

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="no fork: no pool")
    def test_four_small_samples_on_two_cpus_go_to_two_workers(self, monkeypatch):
        # One stack would hold all four fine_n=41 samples, but each worker
        # gets a stack of its own.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        made = []
        stacks = fields._stacks

        class Recording(fields.ProcessPoolExecutor):
            def __init__(self, workers, **kwargs):
                made.append(workers)
                super().__init__(workers, **kwargs)

        def recorded(configs, workers):
            cut = stacks(configs, workers)
            made.append([[config.d for config in stack] for stack in cut])
            return cut

        monkeypatch.setattr(fields, "ProcessPoolExecutor", Recording)
        monkeypatch.setattr(fields, "_stacks", recorded)
        generate_dataset(POOLED_D, fine_n=41)
        assert made == [2, [sorted(POOLED_D)[:2], sorted(POOLED_D)[2:]]]

    @needs_pool
    @pytest.mark.parametrize("fine_n, coarse_n, v0", [(61, 21, 2.0), (40, 40, 1.0), (41, 5, 0.5)],
                             ids=["odd-step", "even-side", "step-10"])
    def test_pooled_stacked_rows_are_the_downsampled_solves(self, monkeypatch, fine_n, coarse_n, v0):
        # Two workers get a stack of three each; every row has the bytes of
        # downsample of that sample's own solve.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        d_values = [0.2, 0.3, 0.45, 0.6, 0.7, 0.85]
        configs = [CapacitorConfig(d=dv, fine_n=fine_n, coarse_n=coarse_n, v0=v0) for dv in d_values]
        assert [len(stack) for stack in fields._stacks(configs, fields._worker_count(len(configs)))] == [3, 3]
        ds = generate_dataset(d_values, fine_n=fine_n, coarse_n=coarse_n, v0=v0)
        assert ds.fields.shape == (len(d_values), coarse_n * coarse_n)
        for config, row in zip(configs, ds.fields):
            want = downsample(solve_sor(build_boundary_mask(config)), coarse_n).values.ravel() / v0
            assert row.tobytes() == want.tobytes()

    def test_stacks_are_even_runs_in_whole_rounds_of_workers(self):
        configs = [CapacitorConfig(d=dv, fine_n=41) for dv in np.linspace(0.1, 0.9, 200)]
        assert fields._STACK_NODES // 21**2 == 91
        assert [len(s) for s in fields._stacks(configs, 2)] == [50, 50, 50, 50]
        assert [len(s) for s in fields._stacks(configs, 1)] == [66, 67, 67]
        assert [len(s) for s in fields._stacks(configs, 3)] == [66, 67, 67]
        assert sum(fields._stacks(configs, 1), []) == configs
        big = [CapacitorConfig(d=dv, fine_n=401) for dv in (0.3, 0.6)]
        assert fields._stacks(big, 2) == [big[:1], big[1:]]
        assert fields._stacks(big, 1) == [big[:1], big[1:]]
        assert fields._stacks([], 1) == []

    @pytest.mark.parametrize("stack_nodes", [10 * 21 * 21, 2 * 21 * 21], ids=["stacks-of-10", "stacks-of-2"])
    def test_convergence_failure_names_the_lowest_failing_d(self, monkeypatch, stack_nodes):
        # At 111 sweeps some fine_n=41 separations converge and some do not;
        # the error names the lowest that fails alone, with its own residual,
        # whether it shares a stack with a lower d that converges (stacks of
        # up to 10) or comes in a later stack than that d (stacks of up to 2).
        monkeypatch.setattr(fields, "_STACK_NODES", stack_nodes)
        d_values = [0.15, 0.3, 0.45, 0.75, 0.2]
        failures = {}
        for dv in sorted(d_values):
            try:
                solve_sor(build_boundary_mask(CapacitorConfig(d=dv, fine_n=41)), max_sweeps=111)
            except ConvergenceError as exc:
                failures[dv] = exc
        assert min(d_values) not in failures and len(failures) > 1
        lowest = min(failures)
        with pytest.raises(ConvergenceError) as got:
            generate_dataset(d_values, fine_n=41, max_sweeps=111)
        assert str(got.value) == f"sample d={lowest!r}: {failures[lowest]}"
        assert (got.value.residual, got.value.sweeps) == (failures[lowest].residual, 111)
        assert multiprocessing.active_children() == []

    @needs_pool
    def test_pooled_convergence_failure_names_the_lowest_d(self):
        with pytest.raises(ConvergenceError, match=r"^sample d=0\.3: SOR did not reach") as info:
            generate_dataset([0.6, 0.3], fine_n=41, max_sweeps=1)
        assert info.value.sweeps == 1
        assert 0.0 < info.value.residual <= 1.0
        assert multiprocessing.active_children() == []

    def test_default_parameter_grids(self):
        assert len(fields.TRAIN_D) == 120
        assert fields.TRAIN_D[0] == 0.1
        assert fields.TRAIN_D[-1] == pytest.approx(0.9, abs=1e-12)
        assert fields.TEST_D == (0.3, 0.36, 0.4, 0.5, 0.6, 0.7, 0.8)
