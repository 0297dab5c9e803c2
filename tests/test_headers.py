"""Seeded header mutation: every reader fails by name, whatever a header says.

Each `key=value` of a small dataset, model and regression file is set to
each of a list of awkward values: negative, zero, huge, float syntax for an
int, nan, inf, empty, signed, padded and a non-ASCII digit. Every mutant
either loads, and then survives a save and a second load unchanged, or
raises ValueError whose message starts with "{path}: ". Through cli.main
the same files exit 0 or 1, a refused one with that message, and never
with a traceback. Each `key = value` of a small sweep config is set to the
same values, and `capinv sweep` on it exits 0, or 1 with one error line.
"""

import re

import numpy as np
import pytest

from capinv import fields, generative, inverse
from capinv.cli import main
from test_textio import _state

VALUES = ("-1", "0", str(10**16), "1e3", "nan", "inf", "", "+2", " 2", "٢")

# Outcomes that name what is wrong, by (kind, key, value).
NAMED = {
    ("dataset", "count", "-1"): "record count must be nonnegative, got -1",
    ("dataset", "count", str(10**16)): "dataset ends before the record 3",
    ("regression", "anchor_d", "nan"): "anchor_d must be finite and lie in [0, 1], got nan",
    ("regression", "anchor_d", "-1"): "anchor_d must be finite and lie in [0, 1], got -1.0",
    ("regression", "anchor_d", "inf"): "anchor_d must be finite and lie in [0, 1], got inf",
    ("regression", "fit_residual", "-1"): "fit_residual must be nonnegative, got -1.0",
    **{("model", "layers", value): f"mlp layers must be at least two nonnegative sizes, got {int(value)}"
       for value in ("-1", "0", str(10**16), "+2")},
    **{("model", "activations", value): f"mlp activations must give one name per layer (2), got {value!r}"
       for value in ("-1", "0", str(10**16), "1e3", "nan", "inf", "", "+2")},
}

LOAD = {"dataset": fields.load_dataset, "model": generative.load_model, "regression": inverse.load_pipeline}
SAVE = {"dataset": fields.save_dataset, "model": generative.save_model, "regression": inverse.save_pipeline}


def _sites(text):
    """(start, end, key) of the value of every key=value in the file."""
    return [(m.start(2), m.end(2), m.group(1)) for m in re.finditer(r"(\w+)=([^ ,\n]*)", text)]


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    root = tmp_path_factory.mktemp("headers")
    rng = np.random.default_rng(11)
    dataset = fields.Dataset(grid_n=2, v0=1.5, d=[0.2, 0.5, 0.8], fields=np.tanh(rng.normal(size=(3, 4))))
    paths = {kind: root / f"good.{kind}" for kind in LOAD}
    fields.save_dataset(dataset, paths["dataset"])
    generative.save_model(generative.build_model("vae", 4, 3, 2, rng), paths["model"])
    inverse.save_pipeline(inverse.fit_pipeline("fullspace", dataset), paths["regression"])
    return root, paths


def _cli_args(kind, path, good):
    if kind == "dataset":
        return ["--approach", "fullspace", "--data", str(path)]
    if kind == "model":
        return ["--approach", "latent", "--model", str(path), "--data", str(good["dataset"])]
    return ["--approach", "fullspace", "--regression", str(path)]


@pytest.mark.parametrize("kind", sorted(LOAD))
def test_every_header_value_loads_or_fails_by_name(artifacts, capsys, kind):
    root, good = artifacts
    text = good[kind].read_text()
    sites = _sites(text)
    keys = {key for _, _, key in sites}
    assert len(keys) >= 3, keys  # every header line of the file is covered
    path, again, out = root / f"mutant.{kind}", root / f"again.{kind}", root / "out.field"
    outcomes = {"loaded": 0, "refused": 0}
    for start, end, key in sites:
        for value in VALUES:
            path.write_bytes((text[:start] + value + text[end:]).encode("utf-8"))
            where = f"{kind} {key}={value!r}"
            try:
                first = LOAD[kind](path)
            except ValueError as exc:
                message = str(exc)
                assert message.startswith(f"{path}: "), f"{where}: {message}"
                assert NAMED.get((kind, key, value), "") in message, f"{where}: {message}"
                outcomes["refused"] += 1
            else:
                assert (kind, key, value) not in NAMED, f"{where} loaded"
                SAVE[kind](first, again)
                assert _state(LOAD[kind](again)) == _state(first), where
                message = None
                outcomes["loaded"] += 1
            code = main(["invert", *_cli_args(kind, path, good), "--d", "0.5", "--out", str(out)])
            err = capsys.readouterr().err
            assert "Traceback" not in err, where
            if message is None:
                assert code in (0, 1), where
            else:
                assert (code, err) == (1, f"error: {message}\n"), where
    assert outcomes["loaded"] > 0 and outcomes["refused"] > 0, outcomes


# One key of each file written a second time with another value that would
# load on its own, so a reader taking the last copy would load it silently.
REPEATED = {
    "dataset": ("v0=1.5", "v0=1.5,v0=9.0"),
    "model": ("activations=tanh:linear", "activations=tanh:linear activations=tanh:tanh"),
    "regression": ("optimizer=-", "optimizer=- optimizer=adam"),
}


@pytest.mark.parametrize("kind", sorted(LOAD))
def test_a_repeated_header_key_fails_by_name(artifacts, capsys, kind):
    root, good = artifacts
    old, new = REPEATED[kind]
    text = good[kind].read_text()
    assert text.count(old) == 1
    path = root / f"repeated.{kind}"
    path.write_text(text.replace(old, new))
    with pytest.raises(ValueError) as caught:
        LOAD[kind](path)
    message = str(caught.value)
    assert message.startswith(f"{path}: malformed ") and new in message, message
    code = main(["invert", *_cli_args(kind, path, good), "--d", "0.5", "--out", str(root / "out.field")])
    assert (code, capsys.readouterr().err) == (1, f"error: {message}\n")


@pytest.fixture(scope="module")
def sweep_config(tmp_path_factory):
    """A small sweep config over saved fine_n=21 sets and an untrained model."""
    root = tmp_path_factory.mktemp("sweep")
    train = fields.generate_dataset(np.linspace(0.2, 0.8, 4), fine_n=21)
    fields.save_dataset(train, root / "train.ds")
    fields.save_dataset(fields.generate_dataset((0.3, 0.6), fine_n=21), root / "test.ds")
    model = generative.build_model("ae", train.fields.shape[1], 6, 2, np.random.default_rng(5))
    generative.save_model(model, root / "ae.model")
    return (
        f"train_data = {root / 'train.ds'}\n"
        f"test_data = {root / 'test.ds'}\n"
        "out_dir = out\n"
        "approaches = fullspace,ae\n"
        f"model_ae = {root / 'ae.model'}\n"
        "optimizer_ae = adam\n"
        "noise_levels = 0.1,0.5\n"
        "test_d = 0.3,0.6\n"
        "seeds = 0,1\n"
        "keep_fields_d = 0.3\n"
        "corrupt_field_first = no\n"
        "timing_reps = 1\n"
    )


def test_every_sweep_config_value_runs_or_fails_by_name(sweep_config, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # out_dir is mutated too, and relative
    sites = [(m.start(2), m.end(2), m.group(1)) for m in re.finditer(r"^(\w+) = (.*)$", sweep_config, re.M)]
    assert len(sites) == sweep_config.count("\n")  # every line of the config is covered
    path = tmp_path / "mutant.cfg"
    outcomes = {0: 0, 1: 0}
    for start, end, key in sites:
        for value in VALUES:
            path.write_bytes((sweep_config[:start] + value + sweep_config[end:]).encode("utf-8"))
            where = f"sweep {key}={value!r}"
            code = main(["sweep", "--config", str(path)])
            err = capsys.readouterr().err
            assert code in outcomes, where
            assert "Traceback" not in err, where
            if code == 1:
                assert err.startswith("error: ") and err.count("\n") == 1, f"{where}: {err}"
            outcomes[code] += 1
    assert outcomes[0] > 0 and outcomes[1] > 0, outcomes
