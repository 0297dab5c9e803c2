"""Harness tests: metric identities, sweep bookkeeping, aggregation
arithmetic, timing table structure, and export round trips."""

import csv
import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest

from capinv.fields import Dataset, FieldGrid
from capinv.experiments import (
    EXPORT_NAMES,
    TIMING_STAGES,
    SweepCell,
    SweepConfig,
    SweepResult,
    aggregate_cells,
    export_results,
    read_sweep_cells,
    run_noise_sweep,
    run_timing,
    ssd,
)
from capinv import experiments, inverse, network
from capinv.inverse import InversionError, RegressionModel, recover_field


def csv_rows(path) -> list:
    return list(csv.reader(Path(path).read_text(encoding="ascii").splitlines()))


def grid(values, units="normalized"):
    return FieldGrid(values=np.asarray(values, dtype=np.float64), units=units)


class TestSsd:
    def test_exact_values(self):
        a = grid(np.ones((21, 21)))
        b = grid(np.ones((21, 21)) + 0.5)
        assert ssd(a, a) == 0.0
        assert ssd(a, b) == 0.25 * 441
        assert ssd(b, a) == ssd(a, b)

    def test_counts_every_node(self):
        a = grid(np.zeros((3, 3)))
        values = np.zeros((3, 3))
        values[1, 2] = 2.0
        assert ssd(a, grid(values)) == 4.0

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="shape"):
            ssd(grid(np.zeros((3, 3))), grid(np.zeros((4, 4))))

    def test_units_mismatch_raises(self):
        a = grid(np.zeros((3, 3)), units="volts")
        b = grid(np.zeros((3, 3)), units="normalized")
        with pytest.raises(ValueError, match="units"):
            ssd(a, b)


class TestRunNoiseSweep:
    CONFIG = SweepConfig(noise_levels=(0.01, 0.5), test_d=(0.3, 0.5), seeds=(0, 1, 2),
                         keep_fields_d=(0.5,))

    def test_cell_grid_is_complete_and_ordered(self, unit_pipelines, unit_test_set):
        result = run_noise_sweep(self.CONFIG, unit_pipelines, unit_test_set)
        assert len(result.cells) == 3 * 2 * 2 * 3
        keys = [(c.approach, c.d, c.e, c.seed) for c in result.cells]
        want = [
            (name, d, e, s)
            for name in unit_pipelines
            for d in (0.3, 0.5)
            for e in (0.01, 0.5)
            for s in (0, 1, 2)
        ]
        assert keys == want
        assert all(c.error is None for c in result.cells)

    def test_cells_recomputable_from_their_coordinates(self, unit_pipelines, unit_test_set):
        result = run_noise_sweep(self.CONFIG, unit_pipelines, unit_test_set)
        cell = next(c for c in result.cells if c.approach == "vae" and c.e == 0.5 and c.seed == 2 and c.d == 0.3)
        again = recover_field(unit_pipelines["vae"], 0.3, 0.5, seed=2)
        idx = int(np.flatnonzero(np.isclose(unit_test_set.d, 0.3))[0])
        reference = unit_test_set.field_grid(idx)
        assert cell.ssd == ssd(reference, again)
        assert cell.optimizer == "adam"

    def test_deterministic(self, unit_pipelines, unit_test_set):
        a = run_noise_sweep(self.CONFIG, unit_pipelines, unit_test_set)
        b = run_noise_sweep(self.CONFIG, unit_pipelines, unit_test_set)
        assert [c.ssd for c in a.cells] == [c.ssd for c in b.cells]

    def test_keeps_fields_only_for_requested_d(self, unit_pipelines, unit_test_set):
        result = run_noise_sweep(self.CONFIG, unit_pipelines, unit_test_set)
        for cell in result.cells:
            if cell.d == 0.5:
                assert cell.field_values is not None and cell.field_values.shape == (21, 21)
            else:
                assert cell.field_values is None
        assert len(result.groundtruth) == 1
        assert result.groundtruth[0][0] == 0.5

    def test_failed_cells_record_errors(self, unit_pipelines, unit_test_set):
        config = SweepConfig(noise_levels=(-1.0,), test_d=(0.5,), seeds=(0,), keep_fields_d=())
        result = run_noise_sweep(config, unit_pipelines, unit_test_set)
        assert len(result.cells) == 3
        for cell in result.cells:
            assert math.isnan(cell.ssd)
            assert "nonnegative" in cell.error

    def test_missing_groundtruth_fails_fast(self, unit_pipelines, unit_test_set):
        config = SweepConfig(noise_levels=(0.01,), test_d=(0.123,), seeds=(0,))
        with pytest.raises(ValueError, match="no groundtruth"):
            run_noise_sweep(config, unit_pipelines, unit_test_set)

    @pytest.mark.parametrize("field,values,repeated", [
        ("noise_levels", (0.01, 0.5, 0.01), 0.01),
        ("test_d", (0.3, 0.5, 0.3 + 5e-10), 0.3 + 5e-10),
        ("seeds", (0, 1, 1), 1),
        ("keep_fields_d", (0.36, 0.36), 0.36),
        ("noise_levels", (math.nan, math.nan), math.nan),  # NaN equals nothing, yet repeats
    ])
    def test_a_repeated_value_is_refused_by_name(self, field, values, repeated):
        with pytest.raises(ValueError, match=f"^{field} repeats {re.escape(repr(repeated))}$"):
            SweepConfig(**{field: values})

    def test_separations_1e_8_apart_are_distinct(self):
        assert SweepConfig(test_d=(0.3, 0.3 + 1e-8)).test_d == (0.3, 0.3 + 1e-8)

    def test_kept_fields_default_to_0_36_where_it_is_swept(self):
        assert SweepConfig().keep_fields_d == (0.36,)
        assert SweepConfig(test_d=(0.3, 0.36 + 5e-10)).keep_fields_d == (0.36,)
        assert SweepConfig(test_d=(0.3, 0.5)).keep_fields_d == ()
        assert SweepConfig(test_d=()).keep_fields_d == ()

    @pytest.mark.parametrize("kept", [0.99, 0.3 + 2e-9, math.nan])
    def test_a_kept_separation_that_is_not_swept_is_refused_by_name(self, kept):
        with pytest.raises(ValueError, match=f"^keep_fields_d: {re.escape(repr(kept))} matches no test_d$"):
            SweepConfig(test_d=(0.3, 0.5), keep_fields_d=(0.5, kept))

    def test_a_pipeline_named_like_the_true_fields_fails_before_any_cell(
            self, unit_pipelines, unit_test_set, monkeypatch):
        # its recovered fig6 blocks would carry the groundtruth blocks' tag
        monkeypatch.setattr(inverse, "add_awgn", None)  # no cell may run
        pipelines = {"fullspace": unit_pipelines["fullspace"], "groundtruth": unit_pipelines["ae"]}
        with pytest.raises(ValueError, match="^approach name 'groundtruth' is reserved for the true fields$"):
            run_noise_sweep(self.CONFIG, pipelines, unit_test_set)

    def test_a_test_set_of_another_grid_fails_before_any_cell(self, unit_pipelines, unit_test_set, monkeypatch):
        coarse = Dataset(grid_n=11, v0=1.0, d=unit_test_set.d, fields=np.zeros((len(unit_test_set), 121)))
        monkeypatch.setattr(inverse, "add_awgn", None)  # no cell may run
        with pytest.raises(ValueError, match="^pipeline 'fullspace' has grid 21, but the test set has grid 11$"):
            run_noise_sweep(self.CONFIG, unit_pipelines, coarse)


class TestSharedStarts:
    """run_noise_sweep draws each (approach, e, seed) start once for all d;
    every cell must still be the recover_field of its own coordinates."""

    CONFIG = SweepConfig(noise_levels=(0.0, 0.1, 1.0), test_d=(0.3, 0.5, 0.8), seeds=(0, 3),
                         keep_fields_d=(0.3, 0.8))

    @staticmethod
    def reference(test_set, d):
        return test_set.field_grid(int(np.flatnonzero(np.isclose(test_set.d, d))[0]))

    @pytest.mark.parametrize("corrupt_field_first", [False, True])
    def test_cells_equal_recover_field_bit_for_bit(self, unit_pipelines, unit_test_set, corrupt_field_first):
        config = dataclasses.replace(self.CONFIG, corrupt_field_first=corrupt_field_first)
        result = run_noise_sweep(config, unit_pipelines, unit_test_set)
        assert len(result.cells) == 3 * 3 * 3 * 2
        for cell in result.cells:
            grid = recover_field(unit_pipelines[cell.approach], cell.d, cell.e, cell.seed,
                                 corrupt_field_first=corrupt_field_first)
            assert cell.error is None
            assert float.hex(cell.ssd) == float.hex(ssd(self.reference(unit_test_set, cell.d), grid))
            if cell.d in (0.3, 0.8):
                assert cell.field_values.tobytes() == grid.values.tobytes()
            else:
                assert cell.field_values is None

    @pytest.mark.parametrize("corrupt_field_first", [False, True])
    def test_failing_pipelines_fail_in_every_cell(self, unit_pipelines, unit_test_set, corrupt_field_first):
        full = unit_pipelines["fullspace"]
        broken = {
            "zero_phi": dataclasses.replace(
                full, regression=RegressionModel("fullspace", np.zeros_like(full.regression.phi), 2.0, 0.0)),
        }
        config = dataclasses.replace(self.CONFIG, corrupt_field_first=corrupt_field_first)
        result = run_noise_sweep(config, broken, unit_test_set)
        assert len(result.cells) == 3 * 3 * 2
        for cell in result.cells:
            with pytest.raises(InversionError) as want:
                recover_field(broken[cell.approach], cell.d, cell.e, cell.seed,
                              corrupt_field_first=corrupt_field_first)
            assert cell.error == str(want.value)
            assert math.isnan(cell.ssd) and cell.field_values is None

    def test_each_start_is_drawn_once(self, unit_pipelines, unit_test_set, monkeypatch):
        draws = []
        add_awgn = inverse.add_awgn

        def counted(x, e, seed):
            draws.append((e, seed))
            return add_awgn(x, e, seed)

        monkeypatch.setattr(inverse, "add_awgn", counted)
        run_noise_sweep(self.CONFIG, unit_pipelines, unit_test_set)
        # one draw per (approach, e, seed), not one per d
        want = [(e, seed) for _ in unit_pipelines for e in self.CONFIG.noise_levels for seed in self.CONFIG.seeds]
        assert draws == want


class TestAggregateCells:
    @staticmethod
    def cell(approach, d, e, seed, value, error=None):
        return SweepCell(approach=approach, optimizer="-", d=d, e=e, seed=seed,
                         ssd=value, error=error)

    def test_median_and_iqr_by_hand(self):
        cells = [self.cell("a", 0.5, 0.1, s, v) for s, v in enumerate([1.0, 2.0, 3.0, 10.0])]
        rows = aggregate_cells(cells)
        assert len(rows) == 1
        assert rows[0].ssd_median == 2.5
        assert rows[0].ssd_iqr == 4.75 - 1.75
        assert rows[0].n_seeds == 4

    def test_failed_cells_excluded(self):
        cells = [
            self.cell("a", 0.5, 0.1, 0, 1.0),
            self.cell("a", 0.5, 0.1, 1, float("nan"), error="boom"),
            self.cell("a", 0.5, 0.1, 2, 3.0),
        ]
        rows = aggregate_cells(cells)
        assert rows[0].n_seeds == 2
        assert rows[0].ssd_median == 2.0

    def test_all_failed_group_reports_nan(self):
        cells = [self.cell("a", 0.5, 0.1, 0, float("nan"), error="x")]
        rows = aggregate_cells(cells)
        assert rows[0].n_seeds == 0
        assert math.isnan(rows[0].ssd_median)
        assert math.isnan(rows[0].ssd_iqr)

    def test_groups_of_mixed_sizes_match_a_call_per_group(self):
        # Groups keeping 5, 4, 3, 1 and 0 of their 5 seeds, some sizes twice,
        # their cells interleaved.
        rng = np.random.default_rng(7)
        kept = {("vae", 0.7): 5, ("ae", 0.3): 4, ("vae", 0.3): 3, ("ae", 0.5): 5, ("fullspace", 0.5): 1,
                ("ae", 0.8): 0, ("fullspace", 0.3): 3, ("vae", 0.8): 0}
        cells = []
        for seed in range(5):
            for (approach, d), n_kept in kept.items():
                value = float(rng.lognormal(0.0, 3.0))
                cells.append(self.cell(approach, d, 0.1, seed, value, error=None if seed < n_kept else "failed"))
        rows = aggregate_cells(cells)
        assert [(r.approach, r.d, r.n_seeds) for r in rows] == [(a, d, n) for (a, d), n in kept.items()]
        for row in rows:
            values = np.array([c.ssd for c in cells if (c.approach, c.d) == (row.approach, row.d) and c.error is None])
            if values.size == 0:
                assert math.isnan(row.ssd_median) and math.isnan(row.ssd_iqr)
                continue
            assert float.hex(row.ssd_median) == float.hex(float(np.median(values)))
            iqr = float(np.percentile(values, 75) - np.percentile(values, 25))
            assert float.hex(row.ssd_iqr) == float.hex(iqr)

    def test_groups_keep_first_seen_order(self):
        cells = [
            self.cell("b", 0.5, 0.1, 0, 1.0),
            self.cell("a", 0.3, 0.5, 0, 2.0),
            self.cell("b", 0.5, 0.1, 1, 3.0),
        ]
        rows = aggregate_cells(cells)
        assert [(r.approach, r.d, r.e) for r in rows] == [("b", 0.5, 0.1), ("a", 0.3, 0.5)]


class TestRunTiming:
    def test_structure_and_stage_presence(self, unit_pipelines, unit_train):
        rows = run_timing(unit_pipelines, unit_train, repetitions=5)
        assert [r.approach for r in rows] == list(unit_pipelines)
        full = rows[0]
        assert full.space_dim == 441
        assert full.encoder_ms is None and full.decoder_ms is None
        assert full.regression_ms > 0 and full.inverse_ms > 0
        assert full.total_ms == full.regression_ms + full.inverse_ms
        for row in rows[1:]:
            assert row.space_dim == 10
            assert all(getattr(row, f"{s}_ms") > 0 for s in TIMING_STAGES)
            assert row.total_ms == pytest.approx(sum(getattr(row, f"{s}_ms") for s in TIMING_STAGES))

    def test_rejects_bad_counts(self, unit_pipelines, unit_train):
        with pytest.raises(ValueError):
            run_timing(unit_pipelines, unit_train, repetitions=0)

    @pytest.mark.skipif(network._openblas_thread_control() is None, reason="no OpenBLAS thread-count symbol found")
    def test_stages_run_on_one_thread_and_restore_the_callers_count(self, unit_pipelines, unit_train, monkeypatch):
        set_threads, get_threads = network._openblas_thread_control()
        seen = []
        real_predict = experiments.inverse_predict

        def spy(*args, **kwargs):
            seen.append(get_threads())
            return real_predict(*args, **kwargs)

        monkeypatch.setattr(experiments, "inverse_predict", spy)
        before = get_threads()
        try:
            set_threads(2)
            caller = get_threads()
            run_timing(unit_pipelines, unit_train, repetitions=2)
            assert get_threads() == caller
        finally:
            set_threads(before)
        assert seen and set(seen) == {1}


class TestExport:
    @pytest.fixture()
    def small_result(self, unit_pipelines, unit_test_set):
        config = SweepConfig(noise_levels=(0.01, 0.5), test_d=(0.36, 0.5), seeds=(0, 1),
                             keep_fields_d=(0.36,))
        return run_noise_sweep(config, unit_pipelines, unit_test_set)

    def test_writes_all_files(self, tmp_path, small_result):
        paths = export_results(small_result, tmp_path)
        assert [p.split("/")[-1] for p in paths] == list(EXPORT_NAMES)
        for p in paths:
            assert (tmp_path / p.split("/")[-1]).exists()

    def test_field_blocks_round_trip(self, tmp_path, small_result):
        paths = export_results(small_result, tmp_path)
        rows = csv_rows(paths[0])  # blocks of a meta line then 21 grid rows
        blocks = [(dict(item.split("=", 1) for item in rows[i]), np.array(rows[i + 1:i + 22], dtype=float))
                  for i in range(0, len(rows), 22)]
        assert blocks[0][0]["approach"] == "groundtruth"
        assert np.array_equal(blocks[0][1], small_result.groundtruth[0][1])
        kept = [c for c in small_result.cells if c.field_values is not None]
        assert len(blocks) == 1 + len(kept)
        assert np.array_equal(blocks[1][1], kept[0].field_values)
        assert blocks[1][0]["approach"] == kept[0].approach

    def test_ssd_tables_split_by_optimizer_tag(self, tmp_path, small_result):
        paths = export_results(small_result, tmp_path)
        _, *non_adam = csv_rows(paths[1])
        _, *adam = csv_rows(paths[2])
        # unit pipelines: fullspace tagged "-", both latents tagged "adam"
        assert {r[0] for r in non_adam} == {"fullspace"}
        assert {r[0] for r in adam} == {"ae", "vae"}
        want = {(r.approach, r.optimizer, r.d, r.e): r for r in aggregate_cells(small_result.cells)}
        for approach, optimizer, d, e, n_seeds, median, iqr in non_adam + adam:
            ref = want[(approach, optimizer, float(d), float(e))]
            assert float(median) == ref.ssd_median
            assert float(iqr) == ref.ssd_iqr
            assert int(n_seeds) == ref.n_seeds

    def test_sweep_cells_round_trip(self, tmp_path, small_result):
        paths = export_results(small_result, tmp_path)
        back = read_sweep_cells(paths[4])
        assert len(back) == len(small_result.cells)
        for a, b in zip(back, small_result.cells):
            assert (a.approach, a.optimizer, a.d, a.e, a.seed) == (
                b.approach, b.optimizer, b.d, b.e, b.seed)
            assert a.ssd == b.ssd
            assert a.error == b.error

    def test_failed_export_keeps_the_old_file(self, tmp_path, small_result):
        paths = export_results(small_result, tmp_path)
        before = Path(paths[4]).read_bytes()
        # The csv writer has written every earlier row when the last one fails to encode.
        bad = dataclasses.replace(small_result.cells[-1], error="solver blew up \u2014 twice")
        with pytest.raises(UnicodeEncodeError):
            export_results(dataclasses.replace(small_result, cells=[*small_result.cells[:-1], bad]), tmp_path)
        assert Path(paths[4]).read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(EXPORT_NAMES)

    def test_a_tag_holding_a_comma_is_refused(self, tmp_path, small_result):
        # fig6's meta lines are comma-separated key=value items.
        cells = [dataclasses.replace(c, optimizer="a,b") for c in small_result.cells]
        with pytest.raises(ValueError, match="^cannot write optimizer='a,b': a header value must not hold ','$"):
            export_results(dataclasses.replace(small_result, cells=cells), tmp_path)
        assert not (tmp_path / EXPORT_NAMES[0]).exists()

    def test_nan_cells_survive_the_round_trip(self, tmp_path):
        cells = [SweepCell(approach="a", optimizer="-", d=0.5, e=0.1, seed=0,
                           ssd=float("nan"), error="solver, blew up")]
        paths = export_results(SweepResult(cells=cells, groundtruth=[]), tmp_path)
        back = read_sweep_cells(paths[4])
        assert math.isnan(back[0].ssd)
        assert back[0].error == "solver, blew up"

    def test_timing_table_round_trip(self, tmp_path, unit_pipelines, unit_train, small_result):
        timing = run_timing(unit_pipelines, unit_train, repetitions=3)
        paths = export_results(small_result, tmp_path, timing=timing)
        header, *rows = csv_rows(paths[3])
        assert header == ["stage", "fullspace", "ae", "vae"]
        by_stage = {r[0]: r[1:] for r in rows}
        assert by_stage["optimizer"] == ["-", "adam", "adam"]
        assert by_stage["space_dim"] == ["441", "10", "10"]
        assert by_stage["encoder"][0] == "-"
        assert float(by_stage["inverse"][0]) == timing[0].inverse_ms
        assert float(by_stage["total"][2]) == timing[2].total_ms

    def test_standalone_timing_writer(self, tmp_path, unit_pipelines, unit_train):
        # An empty sweep result with timing writes the timing table alone.
        timing = run_timing(unit_pipelines, unit_train, repetitions=3)
        paths = export_results(SweepResult(cells=[], groundtruth=[]), tmp_path, timing=timing)
        header, *rows = csv_rows(paths[3])
        assert header[0] == "stage"
        assert len(rows) == 2 + len(TIMING_STAGES) + 1
        assert read_sweep_cells(paths[4]) == []

    def test_empty_result_writes_headers_only(self, tmp_path):
        paths = export_results(SweepResult(cells=[], groundtruth=[]), tmp_path)
        assert Path(paths[0]).read_bytes() == b""
        for p in (paths[1], paths[2]):
            header, *rows = csv_rows(p)
            assert header[0] == "approach"
            assert rows == []
        assert csv_rows(paths[3]) == [["stage"]]
        assert read_sweep_cells(paths[4]) == []
