"""Artifact bytes pinned by sha256: a dataset, an ae and a vae model, a
fullspace and a latent regression artifact, and the exported field blocks,
aggregate tables and raw cells of a small sweep.

The digests were recorded from the writers before they shared one text
codec, so they pin the file format byte for byte. The sweep tables come
from csv.writer and so end their lines in \r\n. The small sweep has only
a fullspace pipeline and no timing, so its fig9_ssd.csv and
table2_timing.csv pin the headers alone; a second sweep adds a copy of
that pipeline tagged adam, so its fig9_ssd.csv pins adam rows. Every input
is built from seeded generators, SOR (pinned in test_fields) and the
pure-Python inverse loop, with no matrix product or least-squares fit, so
the bytes do not depend on the BLAS build or thread count.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from capinv.experiments import SweepConfig, export_results, run_noise_sweep
from capinv.fields import generate_dataset, save_dataset
from capinv.generative import build_model, save_model
from capinv.inverse import InversePipeline, RegressionModel, save_pipeline


def pipeline(approach, dataset, width):
    rng = np.random.default_rng(17)
    regression = RegressionModel(space=approach, phi=rng.normal(size=width), intercept=0.25, fit_residual=1e-3)
    anchor = dataset.fields[1] if approach == "fullspace" else rng.normal(size=width)
    # A latent pipeline is built with its model; the artifact does not hold it.
    model = None if approach == "fullspace" else build_model("ae", dataset.fields.shape[1], 5, width, rng=rng)
    return InversePipeline(
        regression=regression,
        anchor_d=float(dataset.d[1]),
        anchor=anchor,
        anchor_field=dataset.fields[1],
        grid_n=dataset.grid_n,
        model=model,
        optimizer_tag="-" if approach == "fullspace" else "adam",
    )


def write_artifacts(root) -> dict:
    """name -> path of each pinned artifact, written under root."""
    dataset = generate_dataset([0.3, 0.5], fine_n=41, v0=2.5)
    paths = {name: root / name for name in ("dataset.ds", "ae.model", "vae.model", "fullspace.reg", "latent.reg")}
    save_dataset(dataset, paths["dataset.ds"])
    for kind in ("ae", "vae"):
        save_model(build_model(kind, 7, 5, 2, rng=np.random.default_rng(17)), paths[f"{kind}.model"])
    full = pipeline("fullspace", dataset, dataset.fields.shape[1])
    save_pipeline(full, paths["fullspace.reg"])
    save_pipeline(pipeline("latent", dataset, 3), paths["latent.reg"])
    config = SweepConfig(noise_levels=(0.1,), test_d=(0.3, 0.5), seeds=(0, 1), keep_fields_d=(0.3,))
    export_results(run_noise_sweep(config, {"fullspace": full}, dataset), root / "sweep")
    for name in ("fig6_fields.csv", "fig8_ssd.csv", "fig9_ssd.csv", "sweep_cells.csv", "table2_timing.csv"):
        paths[name] = root / "sweep" / name
    tagged = {"fullspace": full, "adam": dataclasses.replace(full, optimizer_tag="adam")}
    export_results(run_noise_sweep(config, tagged, dataset), root / "adam")
    paths["adam/fig9_ssd.csv"] = root / "adam" / "fig9_ssd.csv"
    return paths


DIGESTS = {
    "dataset.ds": "0ca6777d0df6457c06a0ddaeb91dd2613f5b548fadc5d5ca2e14464d107086af",
    "ae.model": "74e22a0a9dcf57f893b1630dded7fe013257e5f8117b6b5b43d9844c3c9831b8",
    "vae.model": "a1afe4ca936598a9c6bad02e852d53040b65010d0926bd0bce23a6684e15116d",
    "fullspace.reg": "fb1cdec7d77fdfaca989caf8a01c3363fae3ce849d13dc421df3bfe7f28800b2",
    "latent.reg": "e7232e6e8dd75526e8937b3eb5432bc0174059b8cfd6f3c8ed6a81266dfd29de",
    "fig6_fields.csv": "20ea81700b082949807f0580c5881e072a518bd23b18d88137504f5beeb0b657",
    "fig8_ssd.csv": "a4849ae813b2b3c2badbcf95c507b78753ed56b2cf208d50c6a06c5bc7ab1d7a",
    "fig9_ssd.csv": "5c49b36d34d6e7021a09c9c6d94ac8f806a566abf1d34637bcd24a5624501637",
    "sweep_cells.csv": "e794fd740dba0b84f814ebff6e0a3720d1ff7d924ffa7da84f77a4230e899b8c",
    "table2_timing.csv": "d89503ad8f90ca3e81aa30f0ca4d62c19745e902d92f55b30854e346aadaa8b0",
    "adam/fig9_ssd.csv": "bc3767ef69374193bd7e2ab9885fa096ecd674d28c4de964b69d048f2b199bc8",
}


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    return write_artifacts(tmp_path_factory.mktemp("artifacts"))


@pytest.mark.parametrize("name", list(DIGESTS))
def test_bytes_pinned(artifacts, name):
    assert hashlib.sha256(artifacts[name].read_bytes()).hexdigest() == DIGESTS[name]
