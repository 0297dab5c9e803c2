"""Command-line behavior: exit codes, artifact wiring between subcommands,
and the sweep config parser. Everything but the end-to-end script runs
in-process via cli.main."""

import builtins
import csv
import errno
import inspect
import os
import pathlib
import re
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

from capinv import experiments, fields, generative, inverse, network
from capinv.cli import main
from capinv.experiments import EXPORT_NAMES
from capinv.network import DEFAULT_LEARNING_RATES


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Small artifacts shared by the happy-path tests, built once."""
    root = tmp_path_factory.mktemp("cli")
    train = root / "train.ds"
    test = root / "test.ds"
    assert main(["generate", "--out", str(train), "--count", "8", "--fine-n", "41"]) == 0
    assert main(["generate", "--out", str(test), "--test-set", "--fine-n", "41"]) == 0
    vae = root / "vae.model"
    args = ["train", "--kind", "vae", "--data", str(train), "--out", str(vae),
            "--optimizer", "adam", "--iters", "60", "--batch", "4",
            "--latent", "4", "--hidden", "12", "--seed", "3"]
    assert main(args) == 0
    return root


class _FullDisk:
    """A file open for writing that takes room more characters, then fails
    part-way through a write as a full disk does."""

    def __init__(self, fh, room):
        self.fh, self.room = fh, room

    def write(self, text):
        if len(text) > self.room:
            self.fh.write(text[: self.room])
            self.room = 0
            raise OSError(errno.ENOSPC, "No space left on device")
        self.room -= len(text)
        return self.fh.write(text)

    def writelines(self, lines):
        for line in lines:
            self.write(line)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def _fill_disk(monkeypatch, target, room):
    """Make every file opened for writing at target, or at a name that starts
    with it, fail after room characters."""
    real_open = builtins.open

    def open_(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        if "w" in mode and os.fspath(file).startswith(os.fspath(target)):
            return _FullDisk(fh, room)
        return fh

    monkeypatch.setattr(builtins, "open", open_)


def _assert_kept(path, before, capsys):
    """A failed write exited 1 naming the cause, left path as it was and
    left no temporary file."""
    assert f"error: [Errno {errno.ENOSPC}] No space left on device" in capsys.readouterr().err
    assert path.read_bytes() == before
    assert not list(path.parent.glob("*.tmp"))


class TestExitCodes:
    def test_no_arguments_is_usage_error(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["generate", "--bogus"]) == 2
        capsys.readouterr()

    # argparse formats a subcommand's help only when it prints it.
    @pytest.mark.parametrize("command", ["", "generate", "train", "invert", "sweep"],
                             ids=lambda command: command or "capinv")
    def test_help_exits_zero(self, capsys, command):
        assert main([*command.split(), "--help"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: capinv {command}".rstrip())
        if not command:
            assert "{generate,train,invert,sweep}" in out

    @pytest.mark.parametrize("command", ["generate", "train"])
    def test_help_names_each_library_default(self, capsys, command):
        geometry = fields.CapacitorConfig(d=0.5)
        training = generative.GenerativeTrainConfig()
        shown = {
            "generate": {
                "--d-min": fields.TRAIN_D[0], "--d-max": fields.TRAIN_D[-1], "--count": len(fields.TRAIN_D),
                "--a": geometry.a, "--b": geometry.b, "--v0": geometry.v0, "--fine-n": geometry.fine_n,
                "--coarse-n": geometry.coarse_n,
                "--max-sweeps": inspect.signature(fields.solve_sor).parameters["max_sweeps"].default,
            },
            "train": {
                "--optimizer": training.optimizer, "--iters": training.max_iterations,
                "--batch": training.minibatch_size, "--latent": training.latent_dim,
                "--hidden": training.hidden_dim, "--beta": training.beta,
                "--seed": inspect.signature(generative.train_generative).parameters["seed"].default,
            },
        }[command]
        assert main([command, "--help"]) == 0
        text = " ".join(capsys.readouterr().out.split())  # undo argparse's line wrapping
        assert "SUPPRESS" not in text
        for flag, value in shown.items():
            assert re.search(rf"{flag} \S+ [^(]*\(default {re.escape(str(value))}\)", text), flag
        if command == "train":
            for name, rate in DEFAULT_LEARNING_RATES.items():
                assert f"{rate:g} for {name}" in text

    def test_domain_error_exits_one(self, tmp_path, capsys):
        out = tmp_path / "x.ds"
        code = main(["generate", "--out", str(out), "--count", "2", "--fine-n", "401",
                     "--d-min", "0.999", "--d-max", "0.9995"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_file_exits_one(self, tmp_path, capsys):
        code = main(["train", "--kind", "ae", "--data", str(tmp_path / "nope.ds"),
                     "--out", str(tmp_path / "m")])
        assert code == 1
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["generate", "train", "sweep"])
    def test_a_size_no_machine_can_allocate_exits_one(self, workdir, tmp_path, capsys, command):
        # 10**16 float64 values exceed any address space, so numpy refuses
        # them without allocating anything.
        huge, out = str(10**16), tmp_path / "out"
        config = tmp_path / "timing.cfg"
        config.write_text(f"train_data={workdir / 'train.ds'}\nout_dir={out}\ntest_d=\ntiming_reps={huge}\n")
        argv = {
            "generate": ["generate", "--out", str(out), "--count", huge],
            "train": ["train", "--kind", "ae", "--data", str(workdir / "train.ds"), "--out", str(out),
                      "--iters", huge],
            "sweep": ["sweep", "--config", str(config)],
        }[command]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: Unable to allocate ")
        assert not out.exists()

    @pytest.mark.parametrize("command, flag", [("generate", "--count"), ("train", "--iters"), ("sweep", "timing_reps")])
    def test_a_size_no_machine_can_allocate_is_named(self, workdir, tmp_path, capsys, monkeypatch, command, flag):
        # The timing runs before the cells, so a sweep fails before its first cell.
        def no_cells(*args):
            raise AssertionError("the sweep ran before the timing")

        monkeypatch.setattr(experiments, "run_noise_sweep", no_cells)
        huge, out = 10**16, tmp_path / "out"
        config = tmp_path / "timing.cfg"
        config.write_text(f"train_data={workdir / 'train.ds'}\nout_dir={out}\ntest_d=\ntiming_reps={huge}\n")
        argv = {
            "generate": ["generate", "--out", str(out), "--count", str(huge)],
            "train": ["train", "--kind", "ae", "--data", str(workdir / "train.ds"), "--out", str(out),
                      "--iters", str(huge)],
            "sweep": ["sweep", "--config", str(config)],
        }[command]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate ") and f"shape ({huge},)" in err
        assert err.endswith(f", asked for by {flag} {huge}\n") and err.count("\n") == 1
        assert not out.exists()

    def test_a_size_is_named_only_for_its_own_array(self, workdir, tmp_path, capsys):
        # The weights of a huge hidden layer are refused inside the training
        # call too, but their shape is not that of --iters.
        out = tmp_path / "out"
        argv = ["train", "--kind", "ae", "--data", str(workdir / "train.ds"), "--out", str(out), "--iters", "3",
                "--hidden", str(10**14)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate ") and "asked for by" not in err
        assert not out.exists()


class TestGenerate:
    def test_writes_loadable_dataset(self, workdir):
        ds = fields.load_dataset(workdir / "train.ds")
        assert len(ds) == 8
        assert ds.grid_n == 21
        assert ds.d[0] == 0.1 and ds.d[-1] == 0.9

    def test_test_set_flag_uses_benchmark_values(self, workdir):
        ds = fields.load_dataset(workdir / "test.ds")
        assert np.array_equal(ds.d, sorted(fields.TEST_D))

    def test_left_out_flags_take_library_defaults(self, tmp_path):
        out, want = tmp_path / "cli.ds", tmp_path / "lib.ds"
        assert main(["generate", "--out", str(out), "--count", "2", "--fine-n", "41"]) == 0
        d_values = np.linspace(fields.TRAIN_D[0], fields.TRAIN_D[-1], 2)
        fields.save_dataset(fields.generate_dataset(d_values, fine_n=41), want)
        assert out.read_bytes() == want.read_bytes()

    def test_every_flag_reaches_the_library(self, tmp_path, capsys):
        flags = {"--a": 0.2, "--b": 0.7, "--v0": 2.5, "--fine-n": 41, "--coarse-n": 11,
                 "--omega": 1.7, "--tol": 1e-7, "--max-sweeps": 5000}
        argv = [str(token) for pair in flags.items() for token in pair]
        out, want = tmp_path / "cli.ds", tmp_path / "lib.ds"
        assert main(["generate", "--out", str(out), "--d-min", "0.3", "--d-max", "0.6", "--count", "3"] + argv) == 0
        dataset = fields.generate_dataset(np.linspace(0.3, 0.6, 3), a=0.2, b=0.7, v0=2.5, fine_n=41, coarse_n=11,
                                          omega=1.7, tol=1e-7, max_sweeps=5000)
        fields.save_dataset(dataset, want)
        assert out.read_bytes() == want.read_bytes()
        # a budget that is never reached leaves no mark on the bytes, so show one that is
        assert main(["generate", "--out", str(out), "--count", "1"] + argv[:-1] + ["3"]) == 1
        assert "within 3 sweeps" in capsys.readouterr().err

    def test_count_must_be_positive(self, tmp_path, capsys):
        assert main(["generate", "--out", str(tmp_path / "x.ds"), "--count", "0"]) == 1
        assert "error: --count must be positive, got 0" in capsys.readouterr().err
        assert not (tmp_path / "x.ds").exists()

    def test_bad_range_rejected(self, tmp_path, capsys):
        code = main(["generate", "--out", str(tmp_path / "x.ds"), "--d-min", "0.9",
                     "--d-max", "0.1", "--fine-n", "41"])
        assert code == 1
        capsys.readouterr()


class TestTrain:
    def test_model_and_history_files(self, workdir):
        model = generative.load_model(workdir / "vae.model")
        assert model.kind == "vae"
        assert model.latent_dim == 4
        history = (workdir / "vae.model.history.csv").read_text().splitlines()
        assert history[0] == "iteration,total,rec,kld"
        assert len(history) == 61
        first = history[1].split(",")
        assert float(first[1]) == float(first[2]) + float(first[3])

    def test_training_is_reproducible_across_invocations(self, workdir, tmp_path):
        again = tmp_path / "again.model"
        args = ["train", "--kind", "vae", "--data", str(workdir / "train.ds"),
                "--out", str(again), "--optimizer", "adam", "--iters", "60",
                "--batch", "4", "--latent", "4", "--hidden", "12", "--seed", "3"]
        assert main(args) == 0
        assert again.read_bytes() == (workdir / "vae.model").read_bytes()

    def test_left_out_flags_take_library_defaults(self, workdir, tmp_path):
        out, want = tmp_path / "cli.model", tmp_path / "lib.model"
        assert main(["train", "--kind", "ae", "--data", str(workdir / "train.ds"), "--out", str(out),
                     "--iters", "30", "--batch", "4", "--latent", "3", "--hidden", "8"]) == 0
        config = generative.GenerativeTrainConfig(max_iterations=30, minibatch_size=4, latent_dim=3, hidden_dim=8)
        model, _ = generative.train_generative("ae", fields.load_dataset(workdir / "train.ds").fields, config)
        generative.save_model(model, want)
        assert out.read_bytes() == want.read_bytes()

    def test_every_flag_reaches_the_library(self, workdir, tmp_path):
        out, want = tmp_path / "cli.model", tmp_path / "lib.model"
        assert main(["train", "--kind", "vae", "--data", str(workdir / "train.ds"), "--out", str(out),
                     "--optimizer", "adam", "--lr", "0.002", "--iters", "40", "--batch", "3", "--latent", "3",
                     "--hidden", "9", "--beta", "0.5", "--seed", "7"]) == 0
        config = generative.GenerativeTrainConfig(optimizer="adam", learning_rate=0.002, max_iterations=40,
                                                  minibatch_size=3, latent_dim=3, hidden_dim=9, beta=0.5)
        model, _ = generative.train_generative("vae", fields.load_dataset(workdir / "train.ds").fields, config,
                                               seed=7)
        generative.save_model(model, want)
        assert out.read_bytes() == want.read_bytes()

    def test_failed_history_write_keeps_the_old_file(self, workdir, tmp_path, monkeypatch, capsys):
        history = tmp_path / "loss.csv"
        args = ["train", "--kind", "ae", "--data", str(workdir / "train.ds"), "--out", str(tmp_path / "ae.model"),
                "--iters", "20", "--batch", "4", "--latent", "3", "--hidden", "8", "--history", str(history)]
        assert main(args + ["--seed", "0"]) == 0
        before = history.read_bytes()
        _fill_disk(monkeypatch, history, room=100)
        assert main(args + ["--seed", "1"]) == 1
        _assert_kept(history, before, capsys)

    def test_an_output_on_another_file_of_the_command_is_refused(self, workdir, tmp_path, capsys):
        # --out and --history on one path would leave only the loss history
        # there, and --out on --data would replace the training set. Paths
        # are compared once resolved, so a second spelling is caught too.
        data, model = tmp_path / "t.ds", tmp_path / "m.model"
        shutil.copyfile(workdir / "train.ds", data)
        (tmp_path / "alias").symlink_to(tmp_path)
        base = ["train", "--kind", "ae", "--iters", "20", "--batch", "4", "--latent", "3", "--hidden", "8"]
        assert main(base + ["--data", str(data), "--out", str(model), "--history", str(model)]) == 1
        assert f"error: --history {model} names the same file as --out" in capsys.readouterr().err
        alias = tmp_path / "alias" / "t.ds"
        assert main(base + ["--data", str(data), "--out", str(alias)]) == 1
        assert f"error: --out {alias} names the same file as --data" in capsys.readouterr().err
        assert data.read_bytes() == (workdir / "train.ds").read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["alias", "t.ds"]

    @pytest.mark.parametrize("kind,optimizer", [("ae", "momentum"), ("vae", "adam")])
    def test_an_overflowing_learning_rate_prints_only_its_error(self, workdir, tmp_path, capsys, kind, optimizer):
        out = tmp_path / "x.model"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["train", "--kind", kind, "--optimizer", optimizer, "--lr", "1e308",
                         "--data", str(workdir / "train.ds"), "--out", str(out),
                         "--iters", "3", "--batch", "4", "--latent", "3", "--hidden", "8"]) == 1
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == "error: non-finite loss at iteration 1\n"
        assert not out.exists()

    def test_bad_config_field_fails_before_training(self, workdir, tmp_path, capsys):
        out = tmp_path / "x.model"
        assert main(["train", "--kind", "ae", "--data", str(workdir / "train.ds"), "--out", str(out),
                     "--latent", "0"]) == 1
        assert "error: latent_dim must be positive, got 0" in capsys.readouterr().err
        assert not out.exists()


class TestInvert:
    def test_fit_on_the_fly_and_reuse_artifact(self, workdir, tmp_path):
        reg = tmp_path / "full.reg"
        out1 = tmp_path / "a.field"
        code = main(["invert", "--approach", "fullspace", "--data", str(workdir / "train.ds"),
                     "--save-regression", str(reg), "--d", "0.5", "--out", str(out1)])
        assert code == 0
        out2 = tmp_path / "b.field"
        code = main(["invert", "--approach", "fullspace", "--regression", str(reg),
                     "--d", "0.5", "--out", str(out2)])
        assert code == 0
        assert out1.read_bytes() == out2.read_bytes()
        with open(out1, encoding="ascii") as fh:
            meta = dict(item.split("=", 1) for item in fh.readline().rstrip("\n").split(","))
            values = np.loadtxt(fh, delimiter=",")
        assert meta["approach"] == "fullspace"
        assert meta["grid"] == "21"
        assert values.shape == (21, 21)

    def test_latent_invert_matches_library_call(self, workdir, tmp_path):
        out = tmp_path / "v.field"
        code = main(["invert", "--approach", "latent", "--model", str(workdir / "vae.model"),
                     "--data", str(workdir / "train.ds"), "--d", "0.36",
                     "--noise", "0.1", "--seed", "5", "--out", str(out)])
        assert code == 0
        train = fields.load_dataset(workdir / "train.ds")
        model = generative.load_model(workdir / "vae.model")
        pipe = inverse.fit_pipeline("latent", train, model=model)
        want = inverse.recover_field(pipe, 0.36, 0.1, seed=5)
        values = np.loadtxt(out, delimiter=",", skiprows=1)
        assert np.array_equal(values, want.values)

    def test_source_flags_are_exclusive(self, workdir, tmp_path, capsys):
        base = ["invert", "--approach", "fullspace", "--d", "0.5",
                "--out", str(tmp_path / "x.field")]
        assert main(base) == 1
        assert main(base + ["--data", str(workdir / "train.ds"),
                            "--regression", str(tmp_path / "nope.reg")]) == 1
        capsys.readouterr()

    def test_save_regression_needs_data(self, workdir, tmp_path, capsys):
        reg = tmp_path / "full.reg"
        assert main(["invert", "--approach", "fullspace", "--data", str(workdir / "train.ds"),
                     "--save-regression", str(reg), "--d", "0.5", "--out", str(tmp_path / "a.field")]) == 0
        capsys.readouterr()
        assert main(["invert", "--approach", "fullspace", "--regression", str(reg), "--save-regression",
                     str(tmp_path / "again.reg"), "--d", "0.5", "--out", str(tmp_path / "b.field")]) == 1
        assert "error: --save-regression needs --data" in capsys.readouterr().err
        assert not (tmp_path / "again.reg").exists()

    def test_an_output_on_another_file_of_the_command_is_refused(self, workdir, tmp_path, capsys):
        # --save-regression and --out on one path would leave a field block
        # where the regression was to be, and --out on --regression would
        # replace the artifact it reads.
        x = tmp_path / "x"
        assert main(["invert", "--approach", "fullspace", "--data", str(workdir / "train.ds"),
                     "--save-regression", str(x), "--d", "0.5", "--out", str(x)]) == 1
        assert f"error: --out {x} names the same file as --save-regression" in capsys.readouterr().err
        assert not x.exists()
        reg = tmp_path / "full.reg"
        assert main(["invert", "--approach", "fullspace", "--data", str(workdir / "train.ds"),
                     "--save-regression", str(reg), "--d", "0.5", "--out", str(tmp_path / "a.field")]) == 0
        before = reg.read_bytes()
        capsys.readouterr()
        assert main(["invert", "--approach", "fullspace", "--regression", str(reg),
                     "--d", "0.5", "--out", str(reg)]) == 1
        assert f"error: --out {reg} names the same file as --regression" in capsys.readouterr().err
        assert reg.read_bytes() == before

    def test_latent_artifact_needs_its_model(self, workdir, tmp_path, capsys):
        reg = tmp_path / "vae.reg"
        assert main(["invert", "--approach", "latent", "--model", str(workdir / "vae.model"), "--data",
                     str(workdir / "train.ds"), "--save-regression", str(reg), "--d", "0.5",
                     "--out", str(tmp_path / "a.field")]) == 0
        capsys.readouterr()
        assert main(["invert", "--approach", "fullspace", "--regression", str(reg),
                     "--d", "0.5", "--out", str(tmp_path / "b.field")]) == 1
        # The artifact's space is read before anything else, so the message
        # names the mismatch, not the model a latent regression needs.
        err = capsys.readouterr().err
        assert f"error: {reg}: regression artifact was fitted for 'latent', not 'fullspace'" in err

    def test_fullspace_artifact_refuses_the_latent_approach(self, workdir, tmp_path, capsys):
        reg = tmp_path / "full.reg"
        assert main(["invert", "--approach", "fullspace", "--data", str(workdir / "train.ds"),
                     "--save-regression", str(reg), "--d", "0.5", "--out", str(tmp_path / "a.field")]) == 0
        capsys.readouterr()
        assert main(["invert", "--approach", "latent", "--model", str(workdir / "vae.model"), "--regression",
                     str(reg), "--d", "0.5", "--out", str(tmp_path / "b.field")]) == 1
        assert f"error: {reg}: regression artifact was fitted for 'fullspace', not 'latent'" in capsys.readouterr().err
        assert not (tmp_path / "b.field").exists()

    def test_latent_requires_model(self, workdir, tmp_path, capsys):
        code = main(["invert", "--approach", "latent", "--data", str(workdir / "train.ds"),
                     "--d", "0.5", "--out", str(tmp_path / "x.field")])
        assert code == 1
        assert "requires --model" in capsys.readouterr().err

    def test_malformed_regression_artifact_exits_one(self, workdir, tmp_path, capsys):
        reg = tmp_path / "full.reg"
        assert main(["invert", "--approach", "fullspace", "--data", str(workdir / "train.ds"),
                     "--save-regression", str(reg), "--d", "0.5", "--out", str(tmp_path / "y.field")]) == 0
        good = reg.read_text().splitlines(keepends=True)
        capsys.readouterr()
        assert " grid=21 " in good[0]
        bad_files = (
            ("cut.reg", good[:5]),
            ("nan.reg", [good[0], "intercept=nan\n", *good[2:]]),
            ("grid.reg", [good[0].replace(" grid=21 ", " grid=22 "), *good[1:]]),
        )
        for name, text in bad_files:
            bad = tmp_path / name
            bad.write_text("".join(text))
            code = main(["invert", "--approach", "fullspace", "--regression", str(bad),
                         "--d", "0.5", "--out", str(tmp_path / "z.field")])
            assert code == 1
            assert f"error: {bad}: " in capsys.readouterr().err

    def test_failed_out_write_keeps_the_old_file(self, workdir, tmp_path, monkeypatch, capsys):
        out = tmp_path / "r.field"
        args = ["invert", "--approach", "fullspace", "--data", str(workdir / "train.ds"), "--out", str(out)]
        assert main(args + ["--d", "0.5"]) == 0
        before = out.read_bytes()
        _fill_disk(monkeypatch, out, room=100)
        assert main(args + ["--d", "0.4"]) == 1
        _assert_kept(out, before, capsys)

    def test_out_must_be_a_regular_file_or_absent(self, workdir, tmp_path, capsys):
        real = tmp_path / "real.field"
        real.write_bytes(b"kept\n")
        link = tmp_path / "link.field"
        link.symlink_to(real)
        for target in (link, tmp_path):
            assert main(["invert", "--approach", "fullspace", "--data", str(workdir / "train.ds"),
                         "--d", "0.5", "--out", str(target)]) == 1
            assert f"error: {target}: not a regular file" in capsys.readouterr().err
        assert link.is_symlink() and real.read_bytes() == b"kept\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.field", "real.field"]

    def test_approach_mismatch_with_artifact(self, workdir, tmp_path, capsys):
        reg = tmp_path / "full.reg"
        main(["invert", "--approach", "fullspace", "--data", str(workdir / "train.ds"),
              "--save-regression", str(reg), "--d", "0.5", "--out", str(tmp_path / "y.field")])
        code = main(["invert", "--approach", "latent", "--model", str(workdir / "vae.model"),
                     "--regression", str(reg), "--d", "0.5", "--out", str(tmp_path / "z.field")])
        assert code == 1
        assert "fitted for" in capsys.readouterr().err


class TestSweep:
    def test_full_run_writes_every_export(self, workdir, tmp_path):
        out_dir = tmp_path / "out"
        config = tmp_path / "sweep.cfg"
        config.write_text(
            "# comment line\n"
            f"train_data={workdir / 'train.ds'}\n"
            f"test_data={workdir / 'test.ds'}\n"
            f"out_dir={out_dir}\n"
            "approaches=fullspace,vae\n"
            f"model_vae={workdir / 'vae.model'}\n"
            "optimizer_vae=adam\n"
            "noise_levels=0.01,0.5\n"
            "test_d=0.3,0.5\n"
            "seeds=0,1\n"
            "keep_fields_d=0.5\n"
            "timing_reps=3\n"
        )
        assert main(["sweep", "--config", str(config)]) == 0
        for name in EXPORT_NAMES:
            assert (out_dir / name).exists()
        header = (out_dir / "table2_timing.csv").read_text(encoding="ascii").splitlines()[0]
        assert header == "stage,fullspace,vae"

    def test_timing_zero_disables_the_table(self, workdir, tmp_path):
        out_dir = tmp_path / "out"
        config = tmp_path / "sweep.cfg"
        config.write_text(
            f"train_data={workdir / 'train.ds'}\n"
            f"test_data={workdir / 'test.ds'}\n"
            f"out_dir={out_dir}\n"
            "noise_levels=0.01\ntest_d=0.5\nseeds=0\nkeep_fields_d=\ntiming_reps=0\n"
        )
        assert main(["sweep", "--config", str(config)]) == 0
        assert (out_dir / "table2_timing.csv").read_text(encoding="ascii").splitlines() == ["stage"]

    def test_timing_only_config(self, workdir, tmp_path):
        out_dir = tmp_path / "out"
        config = tmp_path / "timing.cfg"
        config.write_text(
            f"train_data={workdir / 'train.ds'}\n"
            f"test_data={workdir / 'test.ds'}\n"
            f"out_dir={out_dir}\n"
            "approaches=fullspace,vae\n"
            f"model_vae={workdir / 'vae.model'}\n"
            "test_d=\ntiming_reps=3\n"
        )
        assert main(["sweep", "--config", str(config)]) == 0
        header, *rows = csv.reader((out_dir / "table2_timing.csv").read_text(encoding="ascii").splitlines())
        assert header == ["stage", "fullspace", "vae"]
        by_stage = {r[0]: r[1:] for r in rows}
        assert by_stage["space_dim"] == ["441", "4"]
        assert float(by_stage["inverse"][0]) > 0.0

    def test_timing_only_config_needs_no_test_data(self, workdir, tmp_path):
        tables = []
        for test_data in (f"test_data={workdir / 'test.ds'}\n", ""):
            out_dir = tmp_path / f"out{len(tables)}"
            config = tmp_path / "timing.cfg"
            config.write_text(
                f"train_data={workdir / 'train.ds'}\n{test_data}out_dir={out_dir}\n"
                "approaches=fullspace\ntest_d=\ntiming_reps=2\n"
            )
            assert main(["sweep", "--config", str(config)]) == 0
            header, *body = csv.reader((out_dir / "table2_timing.csv").read_text(encoding="ascii").splitlines())
            space_dim = next(row for row in body if row[0] == "space_dim")
            tables.append((header, [row[0] for row in body], space_dim))
        assert tables[0] == tables[1]

    @pytest.mark.parametrize("test_d", ["", "test_d=0.5\n"])
    def test_cells_need_test_data(self, workdir, tmp_path, capsys, test_d):
        # an absent test_d means the default separations, so cells still run
        config = tmp_path / "sweep.cfg"
        config.write_text(f"train_data={workdir / 'train.ds'}\nout_dir={tmp_path / 'o'}\n{test_d}")
        assert main(["sweep", "--config", str(config)]) == 1
        assert f"error: {config}: missing required key 'test_data'" in capsys.readouterr().err

    @pytest.mark.parametrize("line", [
        "seeds=0,x", "corrupt_field_first=ture", "timing_reps=-5",
        "noise_levels=-1", "noise_levels=0.1,nan", "noise_levels=inf", "seeds=-1",
    ])
    def test_bad_value_names_file_and_key(self, tmp_path, capsys, line):
        # the datasets do not exist: the value must fail before any file is read
        config = tmp_path / "bad.cfg"
        config.write_text(f"train_data={tmp_path / 'no.ds'}\ntest_data=y\nout_dir=z\n{line}\n")
        assert main(["sweep", "--config", str(config)]) == 1
        assert f"error: {config}: {line.split('=')[0]}: " in capsys.readouterr().err

    def test_non_ascii_config_fails_naming_its_path(self, tmp_path, capsys):
        config = tmp_path / "cafe.cfg"
        config.write_bytes("train_data=x\ntest_data=y\nout_dir=z\n# caf\u00e9\n".encode("utf-8"))
        assert main(["sweep", "--config", str(config)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {config}: 'ascii' codec can't decode byte 0xc3 ")

    def test_line_without_equals_rejected(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("train_data=x\ntest_data=y\nout_dir=z\nseeds 0\n")
        assert main(["sweep", "--config", str(config)]) == 1
        assert f"error: {config}:4: expected key=value, got 'seeds 0'" in capsys.readouterr().err

    def test_test_set_errors_name_the_test_data(self, workdir, tmp_path, capsys):
        coarse = tmp_path / "coarse.ds"
        assert main(["generate", "--out", str(coarse), "--count", "2", "--fine-n", "41", "--coarse-n", "11"]) == 0
        capsys.readouterr()
        cases = {
            f"test_data={workdir / 'test.ds'}\ntest_d=0.31\n":
                f"error: {workdir / 'test.ds'}: no groundtruth field for test_d=0.31",
            f"test_data={coarse}\ntest_d=0.1\n":
                f"error: {coarse}: pipeline 'fullspace' has grid 21, but the test set has grid 11",
        }
        for lines, error in cases.items():
            config = tmp_path / "sweep.cfg"
            config.write_text(f"train_data={workdir / 'train.ds'}\nout_dir={tmp_path / 'o'}\ntiming_reps=0\n{lines}")
            assert main(["sweep", "--config", str(config)]) == 1
            assert capsys.readouterr().err == error + "\n"
            assert not (tmp_path / "o").exists()

    def test_optimizer_tag_with_a_comma_fails_before_any_cell(self, workdir, tmp_path, capsys):
        # the fig6 meta line is ','-separated, so such a tag could not be exported
        config = tmp_path / "sweep.cfg"
        config.write_text(f"train_data={workdir / 'train.ds'}\ntest_data={workdir / 'test.ds'}\n"
                          f"out_dir={tmp_path / 'o'}\napproaches=fullspace,vae\nmodel_vae={workdir / 'vae.model'}\n"
                          "optimizer_vae=a,b\ntiming_reps=0\n")
        assert main(["sweep", "--config", str(config)]) == 1
        assert capsys.readouterr().err == f"error: {config}: optimizer_vae: must not hold ',', got 'a,b'\n"
        assert not (tmp_path / "o").exists()

    def test_optimizer_tag_with_a_space_fails_before_any_dataset_loads(self, tmp_path, capsys):
        # the .reg header splits on ' ', so the pipeline would refuse the tag
        # too, after the loads, and without naming the config key
        config = tmp_path / "sweep.cfg"
        config.write_text(f"train_data={tmp_path / 'absent.ds'}\ntest_data={tmp_path / 'absent.ds'}\n"
                          f"out_dir={tmp_path / 'o'}\napproaches=fullspace,ae\nmodel_ae={tmp_path / 'absent.model'}\n"
                          "optimizer_ae = a b\n")
        assert main(["sweep", "--config", str(config)]) == 1
        assert capsys.readouterr().err == f"error: {config}: optimizer_ae: must not hold ' ', got 'a b'\n"
        assert not (tmp_path / "o").exists()

    def test_a_repeated_separation_fails_before_any_dataset_loads(self, tmp_path, capsys):
        # a repeat would sweep the same cells twice and weight them twice in fig8
        config = tmp_path / "sweep.cfg"
        config.write_text(f"train_data={tmp_path / 'absent.ds'}\ntest_data={tmp_path / 'absent.ds'}\n"
                          f"out_dir={tmp_path / 'o'}\ntest_d=0.3,0.5,0.3\n")
        assert main(["sweep", "--config", str(config)]) == 1
        assert capsys.readouterr().err == f"error: {config}: test_d repeats 0.3\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("lines, key", [
        ("approaches = fullspace, vae\n", "model_vae"),
        ("seeds = 0\nseeds = 7\n", "seeds"),
        ("test_d = 0.3, 0.5\nkeep_fields_d = 0.3, 0.4\n", "keep_fields_d"),
        ("model_foo = absent.model\n", "model_foo"),
        ("optimizer_bar = adam\n", "optimizer_bar"),
        ("approaches = fullspace, fullspace\n", "approaches"),
        ("model_fullspace = absent.model\n", "model_fullspace"),
    ], ids=["missing-model", "repeated-key", "unswept-keep", "unlisted-model", "unlisted-optimizer",
            "repeated-approach", "fullspace-model"])
    def test_a_refused_key_fails_before_any_file_is_read(self, tmp_path, capsys, lines, key):
        # train_data is absent, so a check made after the first load would fail on it instead
        config = tmp_path / "sweep.cfg"
        config.write_text(f"train_data={tmp_path / 'absent.ds'}\ntest_data={tmp_path / 'absent.ds'}\n"
                          f"out_dir={tmp_path / 'o'}\n{lines}")
        assert main(["sweep", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {config}:") and err.count("\n") == 1 and key in err, err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key, name", [("train_data", "sweep_cells.csv"), ("model_vae", "fig8_ssd.csv"),
                                           ("--config", "table2_timing.csv")])
    def test_an_export_on_a_file_the_sweep_reads_is_refused(self, workdir, tmp_path, capsys, key, name):
        out_dir = tmp_path / "results"
        out_dir.mkdir()
        files = {"train_data": workdir / "train.ds", "test_data": workdir / "test.ds", "model_vae": workdir / "vae.model"}
        config = tmp_path / "sweep.cfg"
        if key == "--config":
            config = out_dir / name
        else:
            files[key] = shutil.copy(files[key], out_dir / name)
        config.write_text("".join(f"{k}={v}\n" for k, v in files.items())
                          + f"out_dir={out_dir}\napproaches=fullspace,vae\ntest_d=0.5\nseeds=0\ntiming_reps=0\n")
        before = (out_dir / name).read_bytes()
        assert main(["sweep", "--config", str(config)]) == 1
        assert capsys.readouterr().err == f"error: {config}: out_dir/{name} {out_dir / name} names the same file as {key}\n"
        assert (out_dir / name).read_bytes() == before
        assert [p.name for p in out_dir.iterdir()] == [name]

    @pytest.mark.parametrize("below", ["", "results"], ids=["file", "under-a-file"])
    def test_an_out_dir_that_is_a_file_is_refused_before_any_file_is_read(self, workdir, tmp_path, capsys,
                                                                          monkeypatch, below):
        # the sweep itself would run, and only export_results' mkdir would fail
        def no_load(path):
            raise AssertionError(f"loaded {path}")

        monkeypatch.setattr(fields, "load_dataset", no_load)
        taken = tmp_path / "taken.ds"
        shutil.copy(workdir / "train.ds", taken)
        before = taken.read_bytes()
        out_dir = taken / below if below else taken
        config = tmp_path / "sweep.cfg"
        config.write_text(f"train_data={workdir / 'train.ds'}\ntest_data={workdir / 'test.ds'}\n"
                          f"out_dir={out_dir}\ntest_d=0.5\nseeds=0\ntiming_reps=0\n")
        assert main(["sweep", "--config", str(config)]) == 1
        assert capsys.readouterr().err == f"error: {config}: out_dir: {taken} is not a directory\n"
        assert taken.read_bytes() == before

    def test_the_name_of_the_true_fields_is_refused_before_any_file_is_read(self, tmp_path, capsys):
        config = tmp_path / "sweep.cfg"
        config.write_text(f"train_data={tmp_path / 'absent.ds'}\ntest_data={tmp_path / 'absent.ds'}\n"
                          f"out_dir={tmp_path / 'o'}\napproaches = fullspace, groundtruth\n"
                          f"model_groundtruth = {tmp_path / 'absent.model'}\n")
        assert main(["sweep", "--config", str(config)]) == 1
        assert capsys.readouterr().err == f"error: {config}: approaches: 'groundtruth' is reserved for the true fields\n"
        assert not (tmp_path / "o").exists()

    def test_unknown_key_rejected(self, workdir, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("train_data=x\ntest_data=y\nout_dir=z\nbogus=1\n")
        assert main(["sweep", "--config", str(config)]) == 1
        assert "unknown key" in capsys.readouterr().err

    def test_missing_required_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("train_data=x\n")
        assert main(["sweep", "--config", str(config)]) == 1
        assert "missing required key" in capsys.readouterr().err

    def test_latent_approach_without_model_key(self, workdir, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text(
            f"train_data={workdir / 'train.ds'}\n"
            f"test_data={workdir / 'test.ds'}\n"
            f"out_dir={tmp_path / 'o'}\n"
            "approaches=vae\n"
        )
        assert main(["sweep", "--config", str(config)]) == 1
        assert "model_vae" in capsys.readouterr().err


class TestBlasThreads:
    @pytest.mark.skipif(network._openblas_thread_control() is None, reason="no OpenBLAS thread-count symbol found")
    def test_a_command_runs_on_one_thread_and_restores_the_callers_count(self, workdir, tmp_path, monkeypatch,
                                                                        capsys):
        set_threads, get_threads = network._openblas_thread_control()
        seen = []
        real_fit = inverse.fit_pipeline

        def spy(*args, **kwargs):
            seen.append(get_threads())
            return real_fit(*args, **kwargs)

        monkeypatch.setattr(inverse, "fit_pipeline", spy)
        invert = ["invert", "--approach", "fullspace", "--d", "0.5", "--out", str(tmp_path / "a.field")]
        before = get_threads()
        try:
            set_threads(2)
            caller = get_threads()
            assert main(invert + ["--data", str(workdir / "train.ds")]) == 0
            assert get_threads() == caller
            assert main(invert + ["--data", str(tmp_path / "absent.ds")]) == 1
            assert get_threads() == caller
        finally:
            set_threads(before)
        assert seen == [1]
        assert "absent.ds" in capsys.readouterr().err


class TestEndToEnd:
    @pytest.mark.skipif(shutil.which("bash") is None, reason="no bash to run tools/e2e.sh")
    def test_the_ci_chain_passes_through_a_capinv_command(self, tmp_path):
        # tools/e2e.sh is the chain CI runs through the installed console
        # script; here a shim named capinv, first on PATH, stands in for it.
        root = pathlib.Path(__file__).resolve().parents[1]
        bin_dir = tmp_path / "bin"
        bin_dir.mkdir()
        shim = bin_dir / "capinv"
        shim.write_text(f'#!{shutil.which("bash")}\nexec "{sys.executable}" -m capinv.cli "$@"\n')
        shim.chmod(0o755)
        env = dict(os.environ, PATH=os.pathsep.join(p for p in (str(bin_dir), os.environ.get("PATH")) if p))
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
        run = tmp_path / "run"
        run.mkdir()
        done = subprocess.run(["bash", str(root / "tools" / "e2e.sh"), str(run)], env=env,
                              capture_output=True, text=True, timeout=600)
        assert done.returncode == 0, done.stdout + done.stderr
        assert (run / "results" / "sweep_cells.csv").stat().st_size > 0
