"""Generative model tests.

The strongest oracles here: the first training-step loss is recomputed by
hand from a cloned generator stream, analytic step gradients are checked
against finite differences of the step's own objective, and a noiseless
zero-penalty VAE must follow the trajectory of the plain autoencoder its
mean head defines.
"""

import hashlib
import math
import multiprocessing
import os
import pathlib
import subprocess
import sys
import warnings
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from capinv import generative, network
from capinv.network import Mlp, Momentum, TrainingError, forward, minibatch_stream
from capinv.generative import (
    KINDS,
    GenerativeModel,
    GenerativeTrainConfig,
    build_model,
    decode,
    encode,
    kld_loss,
    load_model,
    rec_loss,
    save_model,
    train_model,
    train_generative,
    _step,
)
from test_network import traced_peak_rise


def toy_fields(n=16, width=12, seed=0):
    return np.tanh(np.random.default_rng(seed).normal(size=(n, width)))


class TestBuildModel:
    def test_shapes_and_activations(self):
        rng = np.random.default_rng(0)
        ae = build_model("ae", 441, 200, 20, rng)
        assert ae.encoder.layer_sizes == (441, 200, 20)
        assert ae.decoder.layer_sizes == (20, 200, 441)
        assert ae.encoder.activations == ("tanh", "linear")
        assert ae.decoder.activations == ("tanh", "tanh")
        vae = build_model("vae", 441, 200, 20, np.random.default_rng(0))
        assert vae.encoder.layer_sizes == (441, 200, 40)
        assert vae.decoder.layer_sizes == (20, 200, 441)

    def test_same_seed_same_model(self):
        a = build_model("vae", 10, 6, 3, np.random.default_rng(4))
        b = build_model("vae", 10, 6, 3, np.random.default_rng(4))
        for wa, wb in zip(a.encoder.weights + a.decoder.weights, b.encoder.weights + b.decoder.weights):
            assert np.array_equal(wa, wb)

    def test_rejects_mismatched_parts(self):
        rng = np.random.default_rng(0)
        enc = Mlp.init((10, 6, 3), ("tanh", "linear"), rng)
        dec = Mlp.init((3, 6, 10), ("tanh", "tanh"), rng)
        with pytest.raises(ValueError):
            GenerativeModel(kind="vae", encoder=enc, decoder=dec, latent_dim=3)  # head must be 2Z
        with pytest.raises(ValueError):
            GenerativeModel(kind="ae", encoder=enc, decoder=dec, latent_dim=5)
        with pytest.raises(ValueError):
            build_model("pca", 10, 6, 3, rng)
        with pytest.raises(ValueError, match="^decoder input width 4 != latent_dim 3$"):
            GenerativeModel(kind="ae", encoder=enc, decoder=Mlp.init((4, 6, 10), ("tanh", "tanh"), rng), latent_dim=3)
        assert KINDS == ("ae", "vae")


class TestEncodeDecode:
    def test_single_mirrors_batch(self):
        # Same math either way; tolerance only because BLAS may accumulate
        # matrix-matrix and matrix-vector products in different orders.
        rng = np.random.default_rng(1)
        batch = rng.normal(size=(4, 10))
        ae = build_model("ae", 10, 6, 3, rng)
        codes = encode(ae, batch)
        assert codes.shape == (4, 3)
        assert np.allclose(encode(ae, batch[2]), codes[2], rtol=1e-13, atol=1e-15)
        vae = build_model("vae", 10, 6, 3, rng)
        mu = encode(vae, batch)
        assert np.array_equal(mu, forward(vae.encoder, batch)[-1][:, :3])
        assert np.allclose(encode(vae, batch[1]), mu[1], rtol=1e-13, atol=1e-15)

    def test_vae_heads_come_from_the_raw_output(self):
        # The vae code is the mean head; the log-variance head is not returned.
        rng = np.random.default_rng(2)
        vae = build_model("vae", 8, 5, 2, rng)
        x = rng.normal(size=8)
        raw = forward(vae.encoder, x[None, :])[-1][0]
        assert np.array_equal(encode(vae, x), raw[:2])

    def test_decode_range(self):
        rng = np.random.default_rng(3)
        ae = build_model("ae", 10, 6, 3, rng)
        z = rng.normal(size=(5, 3))
        out = decode(ae, z)
        assert out.shape == (5, 10)
        assert np.max(np.abs(out)) <= 1.0  # tanh head

    def test_width_checks(self):
        ae = build_model("ae", 10, 6, 3, np.random.default_rng(0))
        with pytest.raises(ValueError):
            encode(ae, np.zeros(9))
        with pytest.raises(ValueError):
            decode(ae, np.zeros(4))


class TestLosses:
    def test_rec_loss_identities(self):
        v = toy_fields(4, 9)
        assert rec_loss(v, v) == 0.0
        shifted = v + 0.5
        assert rec_loss(v, shifted) == pytest.approx(0.5 * 0.25 * v.size, abs=1e-12)
        with pytest.raises(ValueError, match=r"^shape mismatch: \(4, 9\) vs \(4, 8\)$"):
            rec_loss(v, v[:, :8])

    def test_kld_identities(self):
        assert kld_loss(np.zeros(7), np.ones(7)) == 0.0
        assert kld_loss(np.ones(1), np.ones(1)) == 0.5
        assert kld_loss(np.ones(4), np.ones(4)) == 2.0

    def test_kld_closed_form(self):
        # mu=0, sigma=e per coordinate: 0.5*(e^2 - 2 - 1) each.
        e = np.e
        got = kld_loss(np.zeros(3), np.full(3, e))
        assert got == pytest.approx(3 * 0.5 * (e * e - 3.0), rel=1e-14)

    def test_kld_positive_away_from_prior(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            mu = rng.normal(size=6)
            sigma = np.exp(rng.normal(size=6))
            if np.allclose(mu, 0) and np.allclose(sigma, 1):
                continue
            assert kld_loss(mu, sigma) > 0.0

    def test_kld_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError):
            kld_loss(np.zeros(2), np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match=r"^shape mismatch: mu \(2,\) vs sigma \(3,\)$"):
            kld_loss(np.zeros(2), np.ones(3))


class TestStepGradients:
    @staticmethod
    def params_of(model):
        return [*model.encoder.weights, *model.encoder.biases,
                *model.decoder.weights, *model.decoder.biases]

    @pytest.mark.parametrize("kind,seed", [("ae", 0), ("ae", 1), ("vae", 2), ("vae", 3)])
    def test_step_gradients_match_finite_differences(self, kind, seed):
        rng = np.random.default_rng(seed)
        model = build_model(kind, 5, 4, 2, rng)
        batch = np.tanh(rng.normal(size=(3, 5)))
        eps = rng.standard_normal((3, 2))
        beta = 0.8

        def objective():
            rec, kld, _ = _step(model, batch, eps, beta)
            return rec + beta * kld

        _, _, grads = _step(model, batch, eps, beta)
        params = self.params_of(model)
        assert len(grads) == len(params)
        h = 1e-5
        for p, g in zip(params, grads):
            it = np.nditer(p, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                keep = p[idx]
                p[idx] = keep + h
                hi = objective()
                p[idx] = keep - h
                lo = objective()
                p[idx] = keep
                numeric = (hi - lo) / (2.0 * h)
                denom = max(abs(g[idx]) + abs(numeric), 1e-3)
                assert abs(g[idx] - numeric) / denom < 1e-5


class TestStepBuffers:
    @staticmethod
    def step_of(model, batch, eps):
        """The model's step on batch, as a function of the gradient buffers."""
        return lambda grads=None: _step(model, batch, eps, 0.7, grads)

    @pytest.mark.parametrize("kind", KINDS)
    def test_buffers_get_the_bytes_of_fresh_gradients(self, kind):
        rng = np.random.default_rng(6)
        model = build_model(kind, 9, 6, 3, rng)
        step = self.step_of(model, np.tanh(rng.normal(size=(4, 9))), rng.standard_normal((4, 3)))
        fresh = step()
        buffers = [np.full(p.shape, np.nan) for p in TestStepGradients.params_of(model)]
        given = step(buffers)
        assert given[2] is buffers
        assert given[:2] == fresh[:2]
        assert [g.tobytes() for g in buffers] == [g.tobytes() for g in fresh[2]]

    @pytest.mark.parametrize("kind", KINDS)
    def test_a_step_with_buffers_allocates_less_than_half_a_parameter(self, kind):
        rng = np.random.default_rng(7)
        model = build_model(kind, 441, 200, 20, rng)
        params = TestStepGradients.params_of(model)
        buffers = [np.empty(p.shape) for p in params]
        step = self.step_of(model, np.tanh(rng.normal(size=(20, 441))), rng.standard_normal((20, 20)))
        limit = max(p.nbytes for p in params) // 2
        for _ in range(3):
            assert traced_peak_rise(lambda: step(buffers)) < limit

    @pytest.mark.parametrize("kind", KINDS)
    def test_training_hands_every_later_step_the_first_steps_arrays(self, kind, monkeypatch):
        real_step = generative._step
        handed = []

        def spy(*args):
            handed.append(args[-1])
            out = real_step(*args)
            handed.append(out[2])
            return out

        monkeypatch.setattr(generative, "_step", spy)
        config = GenerativeTrainConfig(max_iterations=4, minibatch_size=4, latent_dim=2, hidden_dim=3)
        train_generative(kind, toy_fields(8, 6, seed=3), config, seed=0)
        first = handed[1]
        assert handed[0] is None and len(handed) == 8
        assert all(grads is first for grads in handed[1:])


class TestTraining:
    def test_first_step_loss_reproduced_from_cloned_stream(self):
        data = toy_fields(10, 6, seed=8)
        config = GenerativeTrainConfig(
            optimizer="adam", max_iterations=1, minibatch_size=4,
            latent_dim=3, hidden_dim=5, beta=0.7,
        )
        _, history = train_generative("vae", data, config, seed=21)

        rng = np.random.default_rng(21)
        model = build_model("vae", 6, 5, 3, rng)
        idx = rng.permutation(10)[:4]
        eps = rng.standard_normal((4, 3))
        batch = data[idx]
        heads = forward(model.encoder, batch)[-1]
        mu, lv = heads[:, :3], heads[:, 3:]
        sigma = np.exp(0.5 * lv)
        v_rec = forward(model.decoder, mu + sigma * eps)[-1]
        rec = rec_loss(batch, v_rec) / 4
        kld = 0.5 * float(np.sum(sigma**2 + mu**2 - lv - 1.0)) / 4
        assert history.rec[0] == pytest.approx(rec, rel=1e-12)
        assert history.kld[0] == pytest.approx(kld, rel=1e-12)
        assert history.total[0] == pytest.approx(rec + 0.7 * kld, rel=1e-12)

    def test_ae_first_step_loss(self):
        data = toy_fields(8, 5, seed=3)
        config = GenerativeTrainConfig(
            optimizer="momentum", max_iterations=1, minibatch_size=4, latent_dim=2, hidden_dim=4
        )
        _, history = train_generative("ae", data, config, seed=13)
        rng = np.random.default_rng(13)
        model = build_model("ae", 5, 4, 2, rng)
        idx = rng.permutation(8)[:4]
        batch = data[idx]
        v_rec = forward(model.decoder, forward(model.encoder, batch)[-1])[-1]
        assert history.total[0] == pytest.approx(rec_loss(batch, v_rec) / 4, rel=1e-12)
        assert np.all(history.kld == 0.0)

    def test_total_is_rec_plus_weighted_kld(self):
        data = toy_fields(12, 6, seed=1)
        config = GenerativeTrainConfig(
            optimizer="adam", max_iterations=40, minibatch_size=6,
            latent_dim=3, hidden_dim=5, beta=2.5,
        )
        _, history = train_generative("vae", data, config, seed=2)
        assert history.total.shape == (40,)
        assert np.allclose(history.total, history.rec + 2.5 * history.kld, rtol=1e-12)
        assert np.all(history.kld >= 0.0)

    def test_training_reduces_loss(self):
        # Rank-2 data, so a 3-wide latent can actually represent it.
        rng = np.random.default_rng(4)
        data = np.tanh(rng.normal(size=(20, 2)) @ rng.normal(size=(2, 8)))
        config = GenerativeTrainConfig(
            optimizer="adam", max_iterations=400, minibatch_size=10, latent_dim=3, hidden_dim=10
        )
        for kind in KINDS:
            _, history = train_generative(kind, data, config, seed=0)
            assert history.total[-1] < 0.5 * history.total[0]
            assert history.rec[-1] < 0.5 * history.rec[0]

    def test_deterministic_under_fixed_seed(self):
        data = toy_fields(10, 6, seed=6)
        config = GenerativeTrainConfig(
            optimizer="adam", max_iterations=60, minibatch_size=5, latent_dim=2, hidden_dim=4
        )
        m1, h1 = train_generative("vae", data, config, seed=9)
        m2, h2 = train_generative("vae", data, config, seed=9)
        assert np.array_equal(h1.total, h2.total)
        for wa, wb in zip(m1.encoder.weights, m2.encoder.weights):
            assert np.array_equal(wa, wb)
        m3, _ = train_generative("vae", data, config, seed=10)
        assert not np.array_equal(m1.encoder.weights[0], m3.encoder.weights[0])

    def test_noiseless_zero_beta_vae_follows_its_mean_head_ae(self):
        # With beta=0 and zero noise the VAE objective reduces to the
        # reconstruction of its mean head, so its steps must follow the
        # trajectory of the AE assembled from that head and the same decoder.
        data = toy_fields(12, 6, seed=7)
        z = 3
        vae = build_model("vae", 6, 5, z, np.random.default_rng(11))
        enc = Mlp(
            weights=[vae.encoder.weights[0].copy(), vae.encoder.weights[1][:, :z].copy()],
            biases=[vae.encoder.biases[0].copy(), vae.encoder.biases[1][:z].copy()],
            activations=("tanh", "linear"),
        )
        dec = Mlp(
            weights=[w.copy() for w in vae.decoder.weights],
            biases=[b.copy() for b in vae.decoder.biases],
            activations=vae.decoder.activations,
        )
        ae = GenerativeModel(kind="ae", encoder=enc, decoder=dec, latent_dim=z)

        def params(m):
            return [*m.encoder.weights, *m.encoder.biases, *m.decoder.weights, *m.decoder.biases]

        opt_vae, opt_ae = Momentum(1e-3), Momentum(1e-3)
        stream = minibatch_stream(len(data), 4, np.random.default_rng(33))
        zeros = np.zeros((4, z))
        for _ in range(40):
            batch = data[next(stream)]
            rec_vae, _, grads_vae = _step(vae, batch, zeros, 0.0)
            rec_ae, _, grads_ae = _step(ae, batch, None, 0.0)
            assert rec_vae == pytest.approx(rec_ae, rel=1e-9, abs=1e-12)
            opt_vae.step(params(vae), grads_vae)
            opt_ae.step(params(ae), grads_ae)
        assert np.allclose(vae.encoder.weights[1][:, :z], ae.encoder.weights[1], rtol=1e-9, atol=1e-12)
        assert np.allclose(vae.decoder.weights[0], ae.decoder.weights[0], rtol=1e-9, atol=1e-12)

    def test_non_finite_loss_aborts(self):
        config = GenerativeTrainConfig(max_iterations=3, minibatch_size=4, latent_dim=2, hidden_dim=3)
        with pytest.raises(TrainingError, match="non-finite loss at iteration 0"):
            train_generative("vae", np.full((8, 6), np.nan), config, seed=0)

    def test_input_validation(self):
        config = GenerativeTrainConfig(max_iterations=1, minibatch_size=2, latent_dim=2, hidden_dim=3)
        model = build_model("ae", 5, 3, 2, np.random.default_rng(0))
        with pytest.raises(ValueError):
            train_model(model, np.zeros((4, 9)), config, np.random.default_rng(0))
        with pytest.raises(ValueError):
            train_model(model, np.zeros((0, 5)), config, np.random.default_rng(0))
        with pytest.raises(ValueError):
            GenerativeTrainConfig(minibatch_size=0)
        with pytest.raises(ValueError, match="^training fields must be 2-D$"):
            train_generative("ae", np.zeros(5), config)
        for bad in (-0.1, math.nan, math.inf):
            with pytest.raises(ValueError, match="beta"):
                GenerativeTrainConfig(beta=bad)
            with pytest.raises(ValueError, match="learning rate"):
                GenerativeTrainConfig(learning_rate=bad)

    @pytest.mark.parametrize("field, bad", [("latent_dim", 0), ("latent_dim", -1), ("hidden_dim", 0),
                                            ("optimizer", "sgd"), ("max_iterations", -1)])
    def test_config_names_a_bad_field(self, field, bad):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            GenerativeTrainConfig(**{field: bad})


class TestSerialization:
    @pytest.mark.parametrize("kind", KINDS)
    def test_round_trip_is_bit_exact(self, tmp_path, kind):
        model = build_model(kind, 7, 5, 2, np.random.default_rng(17))
        path = tmp_path / f"{kind}.model"
        save_model(model, path)
        back = load_model(path)
        assert back.kind == kind
        assert back.latent_dim == 2
        for wa, wb in zip(model.encoder.weights + model.decoder.weights,
                          back.encoder.weights + back.decoder.weights):
            assert np.array_equal(wa, wb)
        x = np.random.default_rng(0).normal(size=7)
        assert np.array_equal(encode(model, x), encode(back, x))

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.model"
        path.write_text("not a model\n")
        with pytest.raises(ValueError):
            load_model(path)
        path.write_text("")
        with pytest.raises(ValueError):
            load_model(path)
        save_model(build_model("ae", 4, 3, 2, np.random.default_rng(0)), path)
        good = path.read_text().splitlines(keepends=True)
        bad_files = {
            "no activations": [good[0], "mlp layers=4:3:2\n", *good[2:]],
            "header without =": ["generative kind ae latent 2\n", *good[1:]],
            "non-numeric weight": [good[0], good[1], good[2], "abc" + good[3][good[3].index(","):], *good[4:]],
            "truncated": good[:-1],
            "trailing data": [*good, "1.0\n"],
        }
        for text in bad_files.values():
            path.write_text("".join(text))
            with pytest.raises(ValueError, match=r"bad\.model: "):
                load_model(path)

    def test_round_trip_keeps_the_bits_of_edge_values(self, tmp_path):
        edge = [-0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 1e-05, 1e16, 0.1]
        model = build_model("vae", 7, 5, 2, np.random.default_rng(3))
        arrays = model.encoder.weights + model.encoder.biases + model.decoder.weights + model.decoder.biases
        for k, a in enumerate(arrays):
            values = np.roll(edge + [-v for v in edge], k)
            a.flat[: min(a.size, len(values))] = values[: a.size]
        path = tmp_path / "edge.model"
        save_model(model, path)
        back = load_model(path)
        for a, b in zip(arrays, back.encoder.weights + back.encoder.biases + back.decoder.weights + back.decoder.biases):
            assert a.shape == b.shape
            assert a.tobytes() == b.tobytes()

    def test_values_only_float_reads_load_as_float_reads_them(self, tmp_path):
        # The C reader rejects the underscore; the block is then read row by
        # row with float(), which takes it and the padded value.
        model = build_model("ae", 4, 3, 2, np.random.default_rng(0))
        path = tmp_path / "odd.model"
        save_model(model, path)
        good = path.read_text().splitlines(keepends=True)
        assert good[2] == "weights 4 3\n"
        parts = good[4].split(",")
        path.write_text("".join([*good[:4], ",".join(["1_0", f"  {parts[1]}\t", parts[2]]), *good[5:]]))
        back = load_model(path)
        want = model.encoder.weights[0].copy()
        want[1, 0] = 10.0
        assert back.encoder.weights[0].tobytes() == want.tobytes()

    def test_zero_row_block_reads_without_warnings(self, tmp_path):
        path = tmp_path / "zero.model"
        save_model(build_model("ae", 4, 3, 2, np.random.default_rng(0)), path)
        good = path.read_text().splitlines(keepends=True)
        assert good[7] == "biases 3\n"
        path.write_text("".join([good[0], "mlp layers=0:3:2 activations=tanh:linear\n", "weights 0 3\n", *good[7:]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="zero.model: decoder output width does not match encoder input width"):
                load_model(path)


# Trains a paper-width Adam VAE briefly and prints the sha256 of the saved
# model file and of the encoded training set. At this width and minibatch
# (unlike the small unit fixtures) multi-threaded OpenBLAS products differ
# from single-threaded ones in the last bits, and Adam grows the difference
# into a different model within 50 iterations.
_CROSS_THREAD_SCRIPT = """
import hashlib, pathlib, sys, tempfile
import numpy as np
from capinv import fields, generative
data = fields.generate_dataset(np.linspace(0.1, 0.9, 20), fine_n=101).fields
config = generative.GenerativeTrainConfig(
    optimizer="adam", max_iterations=50, minibatch_size=20, latent_dim=20, hidden_dim=200
)
model, _ = generative.train_generative("vae", data, config, seed=2)
with tempfile.TemporaryDirectory() as tmp:
    path = pathlib.Path(tmp) / "vae.model"
    generative.save_model(model, path)
    print(hashlib.sha256(path.read_bytes()).hexdigest())
print(hashlib.sha256(generative.encode(model, data).tobytes()).hexdigest())
"""


class TestBlasThreads:
    def test_training_bits_do_not_depend_on_blas_thread_count(self):
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        digests = {}
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
            out = subprocess.run(
                [sys.executable, "-c", _CROSS_THREAD_SCRIPT],
                env=env, capture_output=True, text=True, check=True, timeout=300,
            ).stdout.split()
            digests[threads] = dict(zip(("model", "encode"), out))
        assert digests["1"]["model"] == digests["2"]["model"]
        assert digests["1"]["encode"] == digests["2"]["encode"]

    def test_a_spawned_worker_trains_the_same_bytes(self):
        # The acceptance models are trained in a spawn pool; a fresh
        # interpreter must train what this process does, bit for bit.
        config = GenerativeTrainConfig(optimizer="adam", max_iterations=200, minibatch_size=10,
                                       latent_dim=5, hidden_dim=40)
        data = toy_fields(40, 121, seed=4)
        here, _ = train_generative("vae", data, config, seed=2)
        with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn")) as pool:
            there, _ = pool.submit(train_generative, "vae", data, config, seed=2).result()
        params = TestStepGradients.params_of
        assert [p.tobytes() for p in params(there)] == [p.tobytes() for p in params(here)]

    @pytest.mark.skipif(network._openblas_thread_control() is None, reason="no OpenBLAS thread-count symbol found")
    def test_training_restores_the_callers_thread_count(self, monkeypatch):
        set_threads, get_threads = network._openblas_thread_control()
        seen = []
        real_step = generative._step

        def spy(*args):
            seen.append(get_threads())
            return real_step(*args)

        monkeypatch.setattr(generative, "_step", spy)
        config = GenerativeTrainConfig(optimizer="adam", max_iterations=5, minibatch_size=4, latent_dim=2, hidden_dim=3)
        data = toy_fields(8, 6, seed=3)
        before = get_threads()
        try:
            set_threads(2)
            caller = get_threads()
            train_generative("ae", data, config, seed=0)
            assert get_threads() == caller
            with pytest.raises(TrainingError):
                train_generative("ae", np.full_like(data, np.nan), config, seed=0)
            assert get_threads() == caller
        finally:
            set_threads(before)
        assert seen and set(seen) == {1}


# Numpy's dispatch targets from X86_V4 up, the AVX512 code path. numpy 1.x
# names none of them.
_AVX512_TARGETS = ("X86_V4", "AVX512_ICL", "AVX512_SPR")

# Trains a small Adam ae and vae with the dispatch targets named in
# NPY_DISABLE_CPU_FEATURES turned off, after checking that they are, and
# prints the sha256 of each model's parameter bytes.
_CODE_PATH_SCRIPT = """
import hashlib, os, sys
import numpy as np
try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:
    from numpy.core._multiarray_umath import __cpu_features__
still_on = [t for t in os.environ["NPY_DISABLE_CPU_FEATURES"].split() if __cpu_features__.get(t)]
if still_on:
    sys.exit(f"dispatch targets still enabled: {still_on}")
from capinv import generative
config = generative.GenerativeTrainConfig(optimizer="adam", max_iterations=40, minibatch_size=6,
                                          latent_dim=4, hidden_dim=16)
data = np.tanh(np.random.default_rng(0).normal(size=(24, 49)))
for kind in ("ae", "vae"):
    model, _ = generative.train_generative(kind, data, config, seed=2)
    print(hashlib.sha256(b"".join(p.tobytes() for p in generative._parameters(model))).hexdigest())
"""


def _cpu_features() -> dict:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    return __cpu_features__


class TestCodePath:
    @pytest.mark.skipif(not _cpu_features().get("X86_V4"), reason="numpy's X86_V4 dispatch target is not enabled")
    def test_np_exp_is_the_one_call_of_training_that_follows_the_avx512_path(self, monkeypatch):
        # Model bits depend on the CPU code path. On numpy's side that is
        # np.exp in _step's vae branch, whose AVX512 loop rounds differently
        # from libm's exp, which the other paths call. So the AVX2 path's
        # bits are this process's with np.exp done per value by math.exp.
        # A second call whose bits follow the AVX512 path fails this test.
        targets = [t for t in _AVX512_TARGETS if _cpu_features().get(t)]
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(targets))
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        there = subprocess.run(
            [sys.executable, "-c", _CODE_PATH_SCRIPT], env=env, capture_output=True, text=True, check=True, timeout=120
        ).stdout.split()
        config = GenerativeTrainConfig(optimizer="adam", max_iterations=40, minibatch_size=6, latent_dim=4,
                                       hidden_dim=16)
        data = np.tanh(np.random.default_rng(0).normal(size=(24, 49)))

        def digest(kind):
            model, _ = train_generative(kind, data, config, seed=2)
            return hashlib.sha256(b"".join(p.tobytes() for p in generative._parameters(model))).hexdigest()

        assert there[0] == digest("ae")
        monkeypatch.setattr(np, "exp", lambda x: np.array([math.exp(v) for v in x.ravel().tolist()]).reshape(x.shape))
        assert there[1] == digest("vae")
