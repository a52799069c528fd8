import math
import re
import tracemalloc

import numpy as np
import pytest

from charrnn.exceptions import LabelError, OptimizerError
from charrnn.objective import EPSILON, RHO, RmspropState, ce_grad, ce_loss, rmsprop_step
from tests.conftest import finite_difference, rel_err


class TestCeLoss:
    def test_uniform_logits_ln_v(self):
        for v in (2, 5, 44):
            logits = np.zeros((3, 4, v))
            targets = np.zeros((3, 4), dtype=np.int64)
            report = ce_loss(logits, targets)
            assert abs(report.mean_loss - math.log(v)) <= 1e-12
            assert report.grad.shape == logits.shape

    def test_perfect_prediction_near_zero(self):
        logits = np.zeros((1, 2, 3))
        logits[..., 1] = 40.0
        targets = np.ones((1, 2), dtype=np.int64)
        assert ce_loss(logits, targets).mean_loss < 1e-9

    def test_two_class_half(self):
        logits = np.zeros((1, 1, 2))
        loss = ce_loss(logits, np.array([[0]])).mean_loss
        assert abs(loss - math.log(2.0)) < 1e-12

    def test_out_of_range_target(self):
        with pytest.raises(LabelError, match="position"):
            ce_loss(np.zeros((1, 2, 3)), np.array([[0, 3]]))

    @pytest.mark.parametrize("targets", [[[0]], [[0, 1, 2]], [0, 1]])
    def test_targets_not_of_the_leading_shape(self, targets):
        # [[0]] would broadcast to [[0, 0]] with a gradient twice too large;
        # the other two ended in a raw IndexError and ValueError
        targets = np.array(targets)
        with pytest.raises(LabelError, match=rf"^targets of shape {re.escape(str(targets.shape))} "
                                             r"do not match logits of shape \(1, 2, 3\)$"):
            ce_loss(np.zeros((1, 2, 3)), targets)

    def test_loss_decreases_with_correct_logit(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(2, 3, 5))
        targets = rng.integers(0, 5, size=(2, 3))
        base = ce_loss(logits, targets).mean_loss
        bumped = logits.copy()
        np.put_along_axis(
            bumped, targets[..., None],
            np.take_along_axis(bumped, targets[..., None], axis=-1) + 0.5, axis=-1,
        )
        assert ce_loss(bumped, targets).mean_loss < base

    def test_huge_logits_stable(self):
        logits = np.full((1, 1, 4), 1e3)
        logits[0, 0, 2] = -1e3
        assert math.isfinite(ce_loss(logits, np.array([[2]])).mean_loss)


    @pytest.mark.parametrize("seed", range(6))
    def test_one_pass_matches_two_pass_bitwise(self, seed):
        # the loss from a full log-softmax and the gradient from a second
        # softmax, as separate passes: ce_loss's one pass gives the same bits
        rng = np.random.default_rng(seed)
        shape = tuple(rng.integers(1, 7, size=2)) + (int(rng.integers(2, 60)),)
        logits = rng.normal(size=shape) * [0.1, 1.0, 5.0, 30.0, 30.0, 1e3][seed]
        targets = rng.integers(0, shape[-1], size=shape[:-1])
        z = logits - logits.max(axis=-1, keepdims=True)
        logp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
        loss = float(-np.take_along_axis(logp, targets[..., None], axis=-1).mean())
        grad = np.exp(z) / np.exp(z).sum(axis=-1, keepdims=True)
        np.put_along_axis(grad, targets[..., None],
                          np.take_along_axis(grad, targets[..., None], axis=-1) - 1.0, axis=-1)
        grad /= targets.size
        report = ce_loss(logits, targets)
        assert report.mean_loss == loss
        assert report.grad.tobytes() == grad.tobytes()
        assert ce_grad(logits, targets).tobytes() == grad.tobytes()

    def test_report_equality_ignores_grad(self):
        logits = np.zeros((1, 2, 3))
        a = ce_loss(logits, np.array([[0, 1]]))
        b = ce_loss(logits, np.array([[2, 2]]))
        assert a == b and not np.array_equal(a.grad, b.grad)


class TestCeGrad:
    def test_perfect_prediction_grad_near_zero(self):
        logits = np.zeros((1, 2, 3))
        logits[..., 0] = 50.0
        grad = ce_grad(logits, np.zeros((1, 2), dtype=np.int64))
        assert np.max(np.abs(grad)) < 1e-12

    def test_rows_sum_to_zero(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(3, 4, 6))
        targets = rng.integers(0, 6, size=(3, 4))
        grad = ce_grad(logits, targets)
        assert np.max(np.abs(grad.sum(axis=-1))) <= 1e-12

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        logits = rng.normal(size=(2, 3, 4))
        targets = rng.integers(0, 4, size=(2, 3))
        analytic = ce_grad(logits, targets)
        (fd,) = finite_difference(
            lambda: ce_loss(logits, targets).mean_loss, [logits], h=1e-6
        )
        assert rel_err(analytic, fd) < 1e-6


class TestRmsprop:
    def test_zero_gradient_decays_accumulator(self):
        params = {"w": np.array([1.0, -2.0])}
        state = RmspropState.for_params(params, alpha=1e-3)
        state.v["w"][:] = 0.4
        rmsprop_step(params, {"w": np.zeros(2)}, state)
        assert np.array_equal(params["w"], [1.0, -2.0])
        assert np.allclose(state.v["w"], 0.36)

    def test_first_step_hand_trace(self):
        params = {"w": np.array([0.0])}
        state = RmspropState.for_params(params, alpha=1e-3)
        rmsprop_step(params, {"w": np.array([1.0])}, state)
        assert abs(state.v["w"][0] - 0.1) < 1e-15
        expected_dw = -1e-3 / math.sqrt(0.1 + EPSILON)
        assert abs(params["w"][0] - expected_dw) / abs(expected_dw) < 1e-12

    def test_two_step_scripted_trace(self):
        # g = (1, -2) with RHO, EPSILON and alpha=1e-3, traced arithmetically
        params = {"w": np.array([0.25])}
        state = RmspropState.for_params(params, alpha=1e-3)
        w, v = 0.25, 0.0
        for g in (1.0, -2.0):
            rmsprop_step(params, {"w": np.array([g])}, state)
            v = RHO * v + (1 - RHO) * g * g
            w = w - 1e-3 * g / math.sqrt(v + EPSILON)
            assert abs(state.v["w"][0] - v) / abs(v) < 1e-12
            assert abs(params["w"][0] - w) / abs(w) < 1e-12

    def test_step_size_bound_from_cold_start(self):
        # from V=0, |step| = alpha*|g|/sqrt((1-rho)g^2 + eps) < alpha/sqrt(1-rho)
        params = {"w": np.array([0.0])}
        state = RmspropState.for_params(params, alpha=1e-3)
        rmsprop_step(params, {"w": np.array([123.456])}, state)
        bound = 1e-3 / math.sqrt(1 - RHO)
        assert abs(params["w"][0]) <= bound + 1e-15

    def test_epsilon_guards_zero_division(self):
        params = {"w": np.array([1.0])}
        state = RmspropState.for_params(params, alpha=1e-3)
        rmsprop_step(params, {"w": np.array([0.0])}, state)
        assert np.isfinite(params["w"][0])

    def test_non_finite_gradient_rejected(self):
        params = {"w": np.array([1.0])}
        state = RmspropState.for_params(params)
        with pytest.raises(OptimizerError, match="w"):
            rmsprop_step(params, {"w": np.array([np.nan])}, state)

    def test_in_place_update_equals_the_formula_bitwise(self):
        # the out-of-place form of the module docstring is the reference
        rng = np.random.default_rng(4)
        shapes = {"w": (7, 5), "b": (5,)}
        params = {k: rng.normal(size=s) for k, s in shapes.items()}
        state = RmspropState.for_params(params, alpha=3e-3)
        ref_p = {k: p.copy() for k, p in params.items()}
        ref_v = {k: np.zeros(s) for k, s in shapes.items()}
        for step in range(4):
            grads = {k: rng.normal(scale=10.0 ** (step - 2), size=s) for k, s in shapes.items()}
            grads["w"][0, :2] = [0.0, -0.0]
            for k, g in grads.items():
                ref_v[k] *= RHO
                ref_v[k] += (1.0 - RHO) * g * g
                ref_p[k] -= 3e-3 * g / np.sqrt(ref_v[k] + EPSILON)
            rmsprop_step(params, grads, state)
            for k in shapes:
                assert params[k].tobytes() == ref_p[k].tobytes(), (step, k)
                assert state.v[k].tobytes() == ref_v[k].tobytes(), (step, k)

    def test_update_holds_one_scratch_per_parameter(self):
        # the gradient becomes the step in place; the out-of-place form held
        # three temporaries the size of the parameter
        params = {"w": np.ones((256, 256))}
        state = RmspropState.for_params(params)
        rmsprop_step(params, {"w": np.ones((256, 256))}, state)  # warm-up
        grads = {"w": np.full((256, 256), 0.5)}
        tracemalloc.start()
        try:
            rmsprop_step(params, grads, state)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= params["w"].nbytes * 1.25 + 16_384, peak
