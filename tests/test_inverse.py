"""Inverse prediction tests.

The descent has a closed form to check against: minimizing
(x.phi + c - t)^2 from x0 moves x0 along phi until the residual dies, so
the solution is the orthogonal projection onto the target hyperplane. The
residual itself contracts by exactly (1 - 2*step*phi.phi) per iteration,
which pins down the loop arithmetic.
"""

import dataclasses
import math
import pickle
import re

import numpy as np
import pytest

from capinv import fields, generative, inverse
from capinv.inverse import (
    InverseOptions,
    InversePipeline,
    InversionError,
    RegressionError,
    RegressionModel,
    add_awgn,
    fit_pipeline,
    fit_regression,
    inverse_predict,
    load_pipeline,
    recover_field,
    save_pipeline,
)
from capinv.network import Mlp


def projection(phi, intercept, target, x0):
    return x0 + phi * (target - x0 @ phi - intercept) / (phi @ phi)


def reference_descent(model, target_d, initial_estimate, options):
    """inverse_predict's checks-free descent with a float() per value, as it
    was written before phi and the start entered through tolist()."""
    x_arr = np.asarray(initial_estimate, dtype=np.float64)
    phi = [float(p) for p in model.phi]
    x = [float(t) for t in x_arr]
    pp = 0.0
    for p in phi:
        pp += p * p
    offset = model.intercept - target_d
    if pp == 0.0:
        if abs(offset) < options.residual_tol:
            return x_arr.copy()
        raise InversionError(
            f"infeasible: zero coefficient vector and intercept {model.intercept!r} "
            f"cannot reach target {target_d!r}",
            residual=abs(offset),
            iterations=0,
        )
    step = 0.5 / pp
    r = offset
    for xi, p in zip(x, phi):
        r += xi * p
    iterations = 0
    while abs(r) >= options.residual_tol:
        if iterations >= options.max_iterations:
            raise InversionError(
                f"no convergence after {iterations} iterations (|residual| = {abs(r):.3e})",
                residual=abs(r),
                iterations=iterations,
            )
        s = 2.0 * step * r
        r = offset
        for i, p in enumerate(phi):
            xi = x[i] - s * p
            x[i] = xi
            r += xi * p
        iterations += 1
    return np.asarray(x, dtype=np.float64)


def synthetic_dataset(d_values, grid_n=3, seed=0):
    rng = np.random.default_rng(seed)
    d = np.asarray(d_values, dtype=np.float64)
    return fields.Dataset(
        grid_n=grid_n, v0=1.0, d=d,
        fields=np.tanh(rng.normal(size=(len(d), grid_n * grid_n))),
    )


class TestFitRegression:
    def test_recovers_exact_affine_map(self):
        rng = np.random.default_rng(0)
        phi_true = rng.normal(size=5)
        c_true = 0.37
        x = rng.normal(size=(40, 5))
        d = x @ phi_true + c_true
        model = fit_regression(x, d, "fullspace")
        assert np.allclose(model.phi, phi_true, atol=1e-10)
        assert model.intercept == pytest.approx(c_true, abs=1e-10)
        assert model.fit_residual < 1e-10
        assert x[7] @ model.phi + model.intercept == pytest.approx(d[7], abs=1e-9)

    def test_constant_targets_give_zero_coefficients(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(10, 4))
        model = fit_regression(x, np.full(10, 0.5), "latent")
        assert np.array_equal(model.phi, np.zeros(4))
        assert model.intercept == 0.5
        assert model.fit_residual == 0.0

    def test_underdetermined_fit_interpolates(self):
        # More coefficients than samples: the training residual still dies.
        rng = np.random.default_rng(2)
        x = rng.normal(size=(6, 20))
        d = rng.uniform(0.1, 0.9, size=6)
        model = fit_regression(x, d, "fullspace")
        assert model.fit_residual < 1e-10

    def test_minimum_norm_splits_duplicate_columns(self):
        rng = np.random.default_rng(3)
        base = rng.normal(size=(12, 1))
        x = np.hstack([base, base])
        d = 0.3 * base[:, 0] + 0.5
        model = fit_regression(x, d, "fullspace")
        assert model.phi[0] == pytest.approx(model.phi[1], rel=1e-10)
        assert model.phi[0] == pytest.approx(0.15, rel=1e-9)

    def test_identical_samples_varying_targets_raise(self):
        x = np.ones((5, 3))
        with pytest.raises(RegressionError, match="rank collapse"):
            fit_regression(x, np.linspace(0, 1, 5), "fullspace")

    def test_identical_samples_identical_targets_fit(self):
        x = np.ones((5, 3))
        model = fit_regression(x, np.full(5, 0.4), "fullspace")
        assert np.array_equal(model.phi, np.zeros(3))
        assert model.intercept == pytest.approx(0.4, abs=1e-15)

    def test_shape_errors(self):
        with pytest.raises(RegressionError):
            fit_regression(np.zeros((1, 3)), np.zeros(1), "fullspace")
        with pytest.raises(RegressionError):
            fit_regression(np.zeros((4, 3)), np.zeros(5), "fullspace")
        with pytest.raises(RegressionError):
            fit_regression(np.zeros(3), np.zeros(3), "fullspace")
        with pytest.raises(ValueError):
            RegressionModel(space="nowhere", phi=np.zeros(2), intercept=0.0, fit_residual=0.0)
        with pytest.raises(ValueError, match="^phi must be a 1-D vector$"):
            RegressionModel(space="latent", phi=np.zeros((2, 2)), intercept=0.0, fit_residual=0.0)

    def test_non_finite_intercept_or_residual_rejected(self):
        for intercept, residual in ((np.nan, 0.0), (np.inf, 0.0), (0.5, np.nan)):
            with pytest.raises(ValueError, match="must be finite"):
                RegressionModel(space="latent", phi=np.ones(2), intercept=intercept, fit_residual=residual)

    def test_negative_fit_residual_rejected(self):
        with pytest.raises(ValueError, match=r"fit_residual must be nonnegative, got -1\.0"):
            RegressionModel(space="latent", phi=np.ones(2), intercept=0.5, fit_residual=-1.0)


class TestAddAwgn:
    def test_zero_variance_copies_without_randomness(self):
        x = np.arange(5.0)
        out = add_awgn(x, 0.0, seed=0)
        assert np.array_equal(out, x)
        assert out is not x

    def test_matches_seeded_generator(self):
        x = np.zeros(8)
        got = add_awgn(x, 0.25, seed=42)
        want = np.random.default_rng(42).normal(0.0, 0.5, 8)
        assert np.array_equal(got, want)

    def test_variance_statistics(self):
        out = add_awgn(np.zeros(200_000), 0.7, seed=1)
        assert np.var(out) == pytest.approx(0.7, rel=0.05)
        assert np.mean(out) == pytest.approx(0.0, abs=0.01)

    def test_negative_variance_rejected(self):
        for e in (-0.1, math.nan, math.inf):
            with pytest.raises(ValueError, match="noise variance must be finite and nonnegative"):
                add_awgn(np.zeros(3), e, seed=0)

    def test_input_untouched(self):
        x = np.ones(4)
        add_awgn(x, 1.0, seed=0)
        assert np.array_equal(x, np.ones(4))


class TestInversePredict:
    def test_matches_projection_oracle(self):
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(25):
            dim = int(rng.integers(2, 50))
            phi = rng.normal(size=dim)
            intercept = float(rng.normal())
            target = float(rng.uniform(0, 1))
            x0 = rng.normal(size=dim)
            model = RegressionModel(space="latent", phi=phi, intercept=intercept, fit_residual=0.0)
            got = inverse_predict(model, target, x0)
            want = projection(phi, intercept, target, x0)
            worst = max(worst, float(np.max(np.abs(got - want))))
            assert abs(got @ phi + intercept - target) < 1e-8
        assert worst < 1e-6

    def test_default_step_converges_in_one_iteration(self):
        rng = np.random.default_rng(1)
        phi = rng.normal(size=10)
        model = RegressionModel(space="latent", phi=phi, intercept=0.1, fit_residual=0.0)
        options = InverseOptions(max_iterations=1)
        got = inverse_predict(model, 0.6, rng.normal(size=10), options)
        assert abs(got @ phi + 0.1 - 0.6) < 1e-8

    def test_zero_iterations_fail_with_the_start_residual(self):
        # Dyadic values, so the residual is exact in any summation order.
        phi = np.array([1.0, 2.0, -1.0])
        model = RegressionModel(space="latent", phi=phi, intercept=0.0, fit_residual=0.0)
        x0 = np.array([0.5, -0.5, 1.0])
        with pytest.raises(InversionError) as err:
            inverse_predict(model, 0.75, x0, InverseOptions(max_iterations=0))
        assert err.value.iterations == 0
        assert err.value.residual == abs(x0 @ phi - 0.75)

    def test_bits_match_reference_descent(self):
        rng = np.random.default_rng(15)
        edge = np.array([-0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308])
        for width in (1, 2, 3, 10, 20, 21, 100, 441):
            for trial in range(4):
                phi = rng.normal(size=width)
                x0 = rng.normal(scale=3.0, size=width)
                if trial % 2:  # edge entries in both vectors, at random places
                    phi[rng.integers(0, width, size=2)] = rng.choice(edge, size=2)
                    x0[rng.integers(0, width, size=2)] = rng.choice(edge, size=2)
                model = RegressionModel(space="latent", phi=phi, intercept=float(rng.normal()), fit_residual=0.0)
                target = float(rng.uniform(0, 1))
                for options in (InverseOptions(), InverseOptions(residual_tol=1e-300, max_iterations=4)):
                    try:
                        want = reference_descent(model, target, x0, options)
                    except InversionError as exc:
                        with pytest.raises(InversionError) as got:
                            inverse_predict(model, target, x0, options)
                        assert (str(got.value), repr(got.value.residual), got.value.iterations) == (
                            str(exc), repr(exc.residual), exc.iterations)
                    else:
                        assert inverse_predict(model, target, x0, options).tobytes() == want.tobytes()
                with pytest.raises(InversionError) as got:
                    inverse_predict(model, target, x0, InverseOptions(max_iterations=0))
                with pytest.raises(InversionError) as want:
                    reference_descent(model, target, x0, InverseOptions(max_iterations=0))
                assert (repr(got.value.residual), got.value.iterations) == (repr(want.value.residual), 0)

    def test_inversion_error_pickles_with_its_fields(self):
        back = pickle.loads(pickle.dumps(InversionError("stuck", residual=0.5, iterations=9)))
        assert type(back) is InversionError
        assert (str(back), back.residual, back.iterations) == ("stuck", 0.5, 9)

    def test_satisfied_start_returns_copy(self):
        phi = np.array([1.0, 0.0])
        model = RegressionModel(space="latent", phi=phi, intercept=0.0, fit_residual=0.0)
        x0 = np.array([0.5, 3.0])
        got = inverse_predict(model, 0.5, x0)
        assert np.array_equal(got, x0)
        assert got is not x0

    def test_zero_phi_infeasible_unless_intercept_matches(self):
        model = RegressionModel(space="latent", phi=np.zeros(3), intercept=0.5, fit_residual=0.0)
        x0 = np.array([1.0, 2.0, 3.0])
        got = inverse_predict(model, 0.5, x0)
        assert np.array_equal(got, x0)
        with pytest.raises(InversionError, match="infeasible"):
            inverse_predict(model, 0.9, x0)

    def test_validation(self):
        model = RegressionModel(space="latent", phi=np.ones(2), intercept=0.0, fit_residual=0.0)
        with pytest.raises(ValueError):
            inverse_predict(model, 1.5, np.zeros(2))
        with pytest.raises(ValueError):
            inverse_predict(model, 0.5, np.array([np.nan, 0.0]))
        with pytest.raises(ValueError):
            inverse_predict(model, 0.5, np.zeros((2, 2)))
        with pytest.raises(ValueError):
            inverse_predict(model, 0.5, np.zeros(3))
        # A nan tolerance would stop no descent: every start would come back unchanged.
        for tol in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match=f"residual_tol must be finite and positive, got {tol}"):
                InverseOptions(residual_tol=tol)
        with pytest.raises(ValueError, match="^max_iterations must be nonnegative, got -1$"):
            InverseOptions(max_iterations=-1)


class TestPipeline:
    def test_anchor_is_nearest_half(self):
        ds = synthetic_dataset([0.1, 0.3, 0.52, 0.9])
        pipe = fit_pipeline("fullspace", ds)
        assert pipe.anchor_d == 0.52
        assert np.array_equal(pipe.anchor, ds.fields[2])
        assert np.array_equal(pipe.anchor_field, ds.fields[2])
        assert pipe.grid_n == 3

    def test_latent_features_are_encoder_means(self, unit_train, unit_vae):
        model, _ = unit_vae
        pipe = fit_pipeline("latent", unit_train, model=model)
        mu = generative.encode(model, unit_train.fields)
        refit = fit_regression(mu, unit_train.d, "latent")
        assert np.array_equal(pipe.regression.phi, refit.phi)
        anchor_idx = int(np.argmin(np.abs(unit_train.d - 0.5)))
        assert np.array_equal(pipe.anchor, mu[anchor_idx])

    def test_latent_needs_model(self, unit_train):
        with pytest.raises(ValueError):
            fit_pipeline("latent", unit_train)
        with pytest.raises(ValueError, match=r"^unknown approach 'bogus', expected one of \('fullspace', 'latent'\)$"):
            fit_pipeline("bogus", unit_train)

    def test_model_width_mismatch(self, unit_train):
        small = generative.build_model("ae", 9, 4, 2, np.random.default_rng(0))
        with pytest.raises(ValueError):
            fit_pipeline("latent", unit_train, model=small)

    def test_fullspace_recover_matches_projection(self, unit_train, unit_pipelines):
        pipe = unit_pipelines["fullspace"]
        reg = pipe.regression
        grid = recover_field(pipe, 0.44, 0.0, seed=0)
        want = projection(reg.phi, reg.intercept, 0.44, pipe.anchor)
        assert grid.units == "normalized"
        assert grid.values.shape == (21, 21)
        assert np.allclose(grid.values.ravel(), want, atol=1e-9)

    def test_latent_recover_decodes_the_projected_code(self, unit_pipelines):
        pipe = unit_pipelines["vae"]
        reg = pipe.regression
        grid = recover_field(pipe, 0.36, 0.0, seed=0)
        code = projection(reg.phi, reg.intercept, 0.36, pipe.anchor)
        want = generative.decode(pipe.model, code).reshape(21, 21)
        assert np.allclose(grid.values, want, atol=1e-9)

    def test_noise_enters_in_search_space(self, unit_pipelines):
        pipe = unit_pipelines["vae"]
        reg = pipe.regression
        grid = recover_field(pipe, 0.5, 0.3, seed=7)
        start = add_awgn(pipe.anchor, 0.3, seed=7)
        solution = inverse_predict(reg, 0.5, start)
        want = generative.decode(pipe.model, solution).reshape(21, 21)
        assert np.allclose(grid.values, want, atol=1e-12)

    @pytest.mark.parametrize("kind", ["ae", "vae"])
    def test_corrupt_field_first_encodes_the_noisy_field(self, unit_pipelines, kind):
        pipe = unit_pipelines[kind]
        grid = recover_field(pipe, 0.5, 0.3, seed=7, corrupt_field_first=True)
        noisy = add_awgn(pipe.anchor_field, 0.3, seed=7)
        start = generative.encode(pipe.model, noisy)
        solution = inverse_predict(pipe.regression, 0.5, start)
        want = generative.decode(pipe.model, solution).reshape(21, 21)
        assert np.allclose(grid.values, want, atol=1e-12)
        # and it is a different start than corrupting the code directly
        assert not np.allclose(grid.values, recover_field(pipe, 0.5, 0.3, seed=7).values)

    def test_corrupt_field_first_is_moot_for_fullspace(self, unit_pipelines):
        pipe = unit_pipelines["fullspace"]
        plain = recover_field(pipe, 0.5, 0.3, seed=7)
        assert np.array_equal(recover_field(pipe, 0.5, 0.3, seed=7, corrupt_field_first=True).values, plain.values)

    def test_same_seed_reproduces_same_field(self, unit_pipelines):
        a = recover_field(unit_pipelines["ae"], 0.7, 1.0, seed=3)
        b = recover_field(unit_pipelines["ae"], 0.7, 1.0, seed=3)
        c = recover_field(unit_pipelines["ae"], 0.7, 1.0, seed=4)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_recover_without_model_fails(self, unit_train):
        # A latent pipeline without its model is refused when it is built.
        pipe = fit_pipeline("fullspace", unit_train)
        with pytest.raises(ValueError, match="^a latent regression needs the generative model it was fitted with$"):
            InversePipeline(
                regression=dataclasses.replace(pipe.regression, space="latent"), anchor_d=pipe.anchor_d,
                anchor=pipe.anchor, anchor_field=pipe.anchor_field, grid_n=pipe.grid_n,
            )

    @pytest.mark.parametrize("name, change, message", [
        ("fullspace", {"anchor": np.zeros(440)}, r"anchor has shape \(440,\), expected \(441,\) like phi"),
        ("fullspace", {"regression": RegressionModel("fullspace", np.ones(9), 0.5, 0.0), "anchor": np.zeros(9)},
         "fullspace phi has 9 entries, expected 441 for grid 21"),
        ("ae", {"model": generative.build_model("ae", 441, 4, 3, np.random.default_rng(0))},
         r"model widths 441->3 do not match grid 21 \(441 cells\) and phi width 10"),
    ], ids=["anchor", "fullspace-phi", "latent-model"])
    def test_every_width_is_checked_at_construction(self, unit_pipelines, name, change, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            dataclasses.replace(unit_pipelines[name], **change)

    @pytest.mark.parametrize("anchor_d", [math.nan, math.inf, -1.0, 1.5])
    def test_anchor_d_outside_the_unit_interval_rejected(self, unit_train, anchor_d):
        pipe = fit_pipeline("fullspace", unit_train)
        with pytest.raises(ValueError, match=r"^anchor_d must be finite and lie in \[0, 1\]"):
            dataclasses.replace(pipe, anchor_d=anchor_d)

    def test_empty_dataset_rejected(self):
        ds = fields.Dataset(grid_n=3, v0=1.0, d=np.zeros(0), fields=np.zeros((0, 9)))
        with pytest.raises(ValueError):
            fit_pipeline("fullspace", ds)


def _zero_width_model():
    """An ae whose hidden layers have no units, so each first bias row is empty."""
    def mlp(fan_in, fan_out):
        return Mlp(weights=[np.zeros((fan_in, 0)), np.zeros((0, fan_out))],
                   biases=[np.zeros(0), np.zeros(fan_out)], activations=("tanh", "linear"))

    return generative.GenerativeModel("ae", mlp(4, 2), mlp(2, 4), latent_dim=2)


class TestPipelineSerialization:
    def test_empty_vector_is_refused(self, tmp_path):
        # A blank row line would read back as the next line's row.
        with pytest.raises(ValueError, match="empty vector 'biases'"):
            generative.save_model(_zero_width_model(), tmp_path / "empty.model")

    def test_failed_save_leaves_the_target_as_it_was(self, tmp_path):
        empty = _zero_width_model()
        kept = tmp_path / "kept.model"
        kept.write_bytes(b"earlier artifact\n")
        for path in (kept, tmp_path / "new.model"):
            with pytest.raises(ValueError, match="empty vector 'biases'"):
                generative.save_model(empty, path)
        assert kept.read_bytes() == b"earlier artifact\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.model"]
        with pytest.raises(FileNotFoundError, match=r"missing/new\.model'$"):
            generative.save_model(empty, tmp_path / "missing" / "new.model")

    @pytest.mark.parametrize("tag", ["my tag", "x\ny", "x\ry", "a,b"])
    def test_a_tag_that_would_not_read_back_is_refused(self, tmp_path, tag):
        # The .reg header splits on ' ' and a field block's meta line on ',',
        # so the pipeline refuses such a tag before anything is written.
        bad = next(c for c in " ,\n\r" if c in tag)
        with pytest.raises(ValueError, match=f"^optimizer_tag must not hold {re.escape(repr(bad))}, "
                                             f"got {re.escape(repr(tag))}$"):
            fit_pipeline("fullspace", synthetic_dataset([0.2, 0.5, 0.8]), optimizer_tag=tag)
        assert not list(tmp_path.iterdir())

    def test_a_reg_file_with_a_comma_in_its_tag_fails_with_its_path(self, tmp_path):
        path = tmp_path / "tag.reg"
        save_pipeline(fit_pipeline("fullspace", synthetic_dataset([0.2, 0.5, 0.8]), optimizer_tag="ab"), path)
        text = path.read_text()
        assert " optimizer=ab\n" in text
        path.write_text(text.replace(" optimizer=ab\n", " optimizer=a,b\n", 1))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: optimizer_tag must not hold ',', "):
            load_pipeline(path)

    @pytest.mark.parametrize("tag", ["a=b", ""])
    def test_a_tag_with_an_equals_sign_or_none_round_trips(self, tmp_path, tag):
        path = tmp_path / "tag.reg"
        save_pipeline(fit_pipeline("fullspace", synthetic_dataset([0.2, 0.5, 0.8]), optimizer_tag=tag), path)
        assert load_pipeline(path).optimizer_tag == tag

    def test_a_reg_file_written_before_the_optimizer_tag_loads_untagged(self, tmp_path):
        path = tmp_path / "old.reg"
        pipe = fit_pipeline("fullspace", synthetic_dataset([0.2, 0.5, 0.8]), optimizer_tag="adam")
        save_pipeline(pipe, path)
        text = path.read_text()
        assert text.startswith("regression space=fullspace grid=3 optimizer=adam\n")
        path.write_text(text.replace(" optimizer=adam\n", "\n", 1))
        back = load_pipeline(path)
        assert back.optimizer_tag == inverse.UNTAGGED
        assert np.array_equal(back.regression.phi, pipe.regression.phi)
        assert np.array_equal(back.anchor_field, pipe.anchor_field)

    def test_an_integer_anchor_d_is_written_as_a_float(self, tmp_path):
        path = tmp_path / "int.reg"
        pipe = dataclasses.replace(fit_pipeline("fullspace", synthetic_dataset([0.2, 0.5, 0.8])), anchor_d=1)
        save_pipeline(pipe, path)
        assert "\nanchor_d=1.0\n" in path.read_text()
        back = load_pipeline(path)
        assert back.anchor_d == 1.0 and isinstance(back.anchor_d, float)

    def test_latent_artifact_loads_only_with_its_model(self, tmp_path, unit_pipelines):
        path = tmp_path / "latent.reg"
        save_pipeline(unit_pipelines["ae"], path)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: a latent regression needs "):
            load_pipeline(path)

    def test_round_trip_is_bit_exact(self, tmp_path, unit_train, unit_vae):
        model, _ = unit_vae
        pipe = fit_pipeline("latent", unit_train, model=model, optimizer_tag="adam")
        path = tmp_path / "latent.reg"
        save_pipeline(pipe, path)
        back = load_pipeline(path, model=model)
        assert back.approach == "latent"
        assert back.optimizer_tag == "adam"
        assert back.grid_n == 21
        assert back.anchor_d == pipe.anchor_d
        assert np.array_equal(back.regression.phi, pipe.regression.phi)
        assert back.regression.intercept == pipe.regression.intercept
        assert np.array_equal(back.anchor, pipe.anchor)
        assert np.array_equal(back.anchor_field, pipe.anchor_field)
        a = recover_field(pipe, 0.4, 0.5, seed=2)
        b = recover_field(back, 0.4, 0.5, seed=2)
        assert np.array_equal(a.values, b.values)

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.reg"
        path.write_text("nope\n")
        with pytest.raises(ValueError):
            load_pipeline(path)
        path.write_text("regression space=latent grid=21 optimizer=-\nintercept=0.5\n")
        with pytest.raises(ValueError):
            load_pipeline(path)
        save_pipeline(fit_pipeline("fullspace", synthetic_dataset([0.2, 0.5, 0.8])), path)
        good = path.read_text().splitlines(keepends=True)
        assert good[4] == "phi 9\n"
        assert " grid=3 " in good[0]
        bad_files = {
            "truncated after phi count": good[:5],
            "header without =": ["regression space fullspace\n", *good[1:]],
            "non-finite intercept": [good[0], "intercept=nan\n", *good[2:]],
            "non-numeric coefficient": [*good[:5], "abc," + good[5].split(",", 1)[1], *good[6:]],
            "short coefficient row": [*good[:5], "1.0\n", *good[6:]],
            "edited grid": [good[0].replace(" grid=3 ", " grid=4 "), *good[1:]],
        }
        for text in bad_files.values():
            path.write_text("".join(text))
            with pytest.raises(ValueError, match=r"bad\.reg: "):
                load_pipeline(path)

    def test_load_rejects_a_negative_grid(self, tmp_path):
        # (-3)^2 passes every width check; the grid side itself must be refused.
        path = tmp_path / "neg.reg"
        save_pipeline(fit_pipeline("fullspace", synthetic_dataset([0.2, 0.5, 0.8])), path)
        path.write_text(path.read_text().replace(" grid=3 ", " grid=-3 ", 1))
        with pytest.raises(ValueError, match=r"neg\.reg: grid side must be at least 1, got grid=-3"):
            load_pipeline(path)
