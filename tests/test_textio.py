"""Differential test of the artifact codec's two parse routes.

textio parses a block of float rows with one np.loadtxt call and parses it
again row by row with float() when that call fails. Every file, however
damaged, must load to the same arrays by the block route as by the row
route alone, or fail with the same exception type and message. The files
here are small dataset, model and regression artifacts with one seeded
edit each: a character replaced, inserted or deleted, or a line dropped,
duplicated, swapped or truncated.
"""

import dataclasses
import random

import numpy as np
import pytest

from capinv import fields, generative, inverse

# Characters an edit writes: number syntax, whitespace that both routes
# strip, and the ASCII separators that only np.loadtxt strips.
ALPHABET = "0123456789.,-+eE naif_\t\x0b\x0c" + "\x1c\x1d\x1e\x1f" * 3
MUTANTS_PER_FILE = 300


def _mutate(text: str, rng: random.Random) -> str:
    lines = text.splitlines(keepends=True)
    op = rng.choice(["replace", "insert", "delete", "drop", "duplicate", "swap", "truncate"])
    if op in ("replace", "insert", "delete"):
        at = rng.randrange(len(text))
        keep = text[at + 1:] if op != "insert" else text[at:]
        new = rng.choice(ALPHABET) if op != "delete" else ""
        return text[:at] + new + keep
    i = rng.randrange(len(lines))
    if op == "drop":
        del lines[i]
    elif op == "duplicate":
        lines.insert(i, lines[i])
    elif op == "swap":
        j = rng.randrange(len(lines))
        lines[i], lines[j] = lines[j], lines[i]
    else:
        lines[i] = lines[i][: rng.randrange(len(lines[i]))] + "\n"
    return "".join(lines)


def _state(value):
    """Everything a loaded artifact holds, with arrays and floats as bits."""
    if isinstance(value, np.ndarray):
        return value.shape, value.dtype.str, value.tobytes()
    if dataclasses.is_dataclass(value):
        return type(value).__name__, tuple(_state(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, (list, tuple)):
        return tuple(map(_state, value))
    if isinstance(value, float):
        return repr(value)
    return value


def _outcome(load, path):
    try:
        return "loaded", _state(load(path))
    except Exception as exc:  # the type and message are the outcome
        return "failed", type(exc).__name__, str(exc)


def _refuse(*args, **kwargs):
    raise ValueError("block route disabled")


def _artifacts(tmp_path):
    rng = np.random.default_rng(7)
    values = np.concatenate([[-0.0, 5e-324, 1e16, 0.1], rng.normal(size=11)])
    dataset = fields.Dataset(grid_n=2, v0=1.5, d=[0.2, 0.5, 0.8], fields=values[:12].reshape(3, 4))
    model = generative.build_model("vae", 4, 3, 2, rng)
    pipeline = inverse.fit_pipeline("fullspace", dataset)
    paths = {"dataset": tmp_path / "a.ds", "model": tmp_path / "a.model", "regression": tmp_path / "a.reg"}
    fields.save_dataset(dataset, paths["dataset"])
    generative.save_model(model, paths["model"])
    inverse.save_pipeline(pipeline, paths["regression"])
    return paths


LOADERS = {"dataset": fields.load_dataset, "model": generative.load_model, "regression": inverse.load_pipeline}


@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_block_and_row_routes_agree_on_damaged_files(tmp_path, monkeypatch, kind):
    load = LOADERS[kind]
    text = _artifacts(tmp_path)[kind].read_text()
    rng = random.Random(f"codec-{kind}")
    path = tmp_path / f"mutant.{kind}"
    counts = {"loaded": 0, "failed": 0}
    for n in range(MUTANTS_PER_FILE):
        mutant = _mutate(text, rng)
        path.write_text(mutant)
        block = _outcome(load, path)
        with monkeypatch.context() as patch:
            patch.setattr(np, "loadtxt", _refuse)
            row = _outcome(load, path)
        assert block == row, f"mutant {n} of the {kind} file reads differently by block: {mutant!r}"
        counts[block[0]] += 1
    # Both outcomes occur, so the comparison covers arrays and messages.
    assert counts["loaded"] > 0 and counts["failed"] > 0, counts
