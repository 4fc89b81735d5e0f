"""Numeric sanitizer tests: fault detection, record mode, clean restore."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.sanitize import NumericFault, Sanitizer, sanitize, sanitizer_selfcheck
from repro.autograd.tensor import Tensor
from repro.compression.coding import SparseTensor
from repro.compression.topk import TopKSparsifier
from repro.core.layerops import gradients_of, layer_shapes
from repro.core.strategies import DenseStrategy, GradientDroppingStrategy
from repro.nn import MLP, cross_entropy
from repro.nn.module import Parameter
from repro.optim.sgd import SGD

BAD = np.array([1.0, np.nan, 3.0], dtype=np.float64)


class TestFaultDetection:
    def test_autograd_nan_raises_at_the_op(self):
        with sanitize():
            t = Tensor(BAD.copy(), requires_grad=True)
            with pytest.raises(NumericFault) as exc:
                t * 2.0
        assert exc.value.kind == "non-finite"
        assert "NaN" in str(exc.value)

    def test_optimizer_step_checks_updated_params(self):
        p = Parameter(np.ones(3, dtype=np.float64))
        p.grad = BAD.copy()
        with sanitize():
            with pytest.raises(NumericFault) as exc:
                SGD([p], lr=0.1).step()
        assert exc.value.op == "SGD.step"

    def test_sparsifier_mask_checks_input(self):
        with sanitize():
            with pytest.raises(NumericFault) as exc:
                TopKSparsifier(0.5).mask(BAD)
        assert exc.value.op == "TopKSparsifier.mask"

    def test_codec_to_dense_checks_output(self):
        codec = SparseTensor(np.array([1], dtype=np.int64), np.array([np.inf]), (3,))
        with sanitize():
            with pytest.raises(NumericFault) as exc:
                codec.to_dense()
        assert exc.value.op == "SparseTensor.to_dense"
        assert "Inf" in str(exc.value)

    def test_quantised_payload_applies_without_widening_a_float32_arena(self):
        """The server's Eq. 1 apply of a DGS+TernGrad upload materialises
        it at the arena's dtype: no float64 array appears in a float32
        stream (the sanitizer's wrapper forwards ``to_dense``'s dtype)."""
        from repro.compression import QuantizedSparseTensor
        from repro.core.tracker import ModelDifferenceTracker

        tracker = ModelDifferenceTracker({"w": (8,)}, 1)
        upload = QuantizedSparseTensor(
            np.array([2, 5]), np.array([1, -1], dtype=np.int8), 0.5, (8,)
        )
        with sanitize(expected_dtype=np.float32, on_fault="record") as s:
            tracker.apply_update({"w": upload})
        assert s.faults == []
        np.testing.assert_array_equal(tracker.M["w"], [0, 0, -0.5, 0, 0, 0.5, 0, 0])

    def test_dtype_drift_detected_against_pinned_dtype(self):
        with sanitize(expected_dtype=np.float64, on_fault="record") as s:
            s.check_array(np.ones(4, dtype=np.float32), "test.creep")
        assert [f.kind for f in s.faults] == ["dtype-drift"]
        assert "float32" in s.faults[0].detail

    def test_transposed_gradient_entering_prepare_is_flagged(self):
        """The property that would have caught the F-ordered hand-off: one
        finding per non-C-contiguous layer, naming strategy and layer."""
        shapes = {"w": (4, 3), "v": (4, 3), "b": (4,)}
        grads = {
            "w": np.ones((3, 4)).T,  # the layout x @ w.T used to produce
            "v": np.ones((4, 3)),
            "b": np.ones(8)[::2],  # strided 1-D view
        }
        with sanitize(on_fault="record") as s:
            GradientDroppingStrategy(shapes, TopKSparsifier(0.5)).prepare(grads, 0.1)
        assert [(f.kind, f.op) for f in s.faults] == [
            ("layout", "GradientDroppingStrategy.prepare[w]"),
            ("layout", "GradientDroppingStrategy.prepare[b]"),
        ]
        assert "strides (8, 32)" in s.faults[0].detail

    def test_model_gradients_enter_prepare_clean(self):
        """A real backward hands every strategy C-ordered gradients."""
        model = MLP(6, (8,), 3, seed=0)
        with sanitize(expected_dtype=np.float32) as s:
            batch = Tensor(np.ones((4, 6), dtype=np.float32))
            cross_entropy(model(batch), np.array([0, 1, 2, 0])).backward()
            DenseStrategy(layer_shapes(model)).prepare(gradients_of(model), 0.1)
        assert s.faults == []

    @staticmethod
    def _journaled_tracker():
        from repro.core.tracker import ModelDifferenceTracker

        return ModelDifferenceTracker({"w": (64,), "b": (4,)}, 2, dtype=np.float64)

    @staticmethod
    def _newest_entry(tracker, name):
        """``(indices, pre-values)`` the newest journal entry holds for ``name``."""
        return tracker._journal[-1][name]

    def test_journal_reply_is_rederived_by_the_dense_scan(self):
        """Every layer the tracker answers from its journal is checked
        against ``encode_best(M − v_k)``, ``v_k`` rewound from ``M`` through
        the sanitizer's own record of each update; a journal that lost an
        index is reported at the layer, not as accuracy drift later."""
        tracker = self._journaled_tracker()
        update = {"w": SparseTensor(np.array([3, 40]), np.array([1.0, -2.0]), (64,))}
        with sanitize(on_fault="record") as s:
            tracker.apply_update(update)
            tracker.model_difference(1)
            assert s.faults == []
            tracker.apply_update(update)
            idx, pre = self._newest_entry(tracker, "w")
            tracker._journal[-1]["w"] = (idx[:1], pre[:1])
            tracker.model_difference(1)
        assert [(f.kind, f.op) for f in s.faults] == [
            ("journal-mismatch", "ModelDifferenceTracker.model_difference[w]")
        ]
        assert "nnz=1" in s.faults[0].detail and "nnz=2" in s.faults[0].detail

    def test_corrupted_pre_value_is_caught(self):
        """The pre-update values are what the reply subtracts: one held
        wrong ships a wrong value at the right index — one fault."""
        tracker = self._journaled_tracker()
        update = {"w": SparseTensor(np.array([3, 40]), np.array([1.0, -2.0]), (64,))}
        with sanitize(on_fault="record") as s:
            tracker.apply_update(update)
            self._newest_entry(tracker, "w")[1][1] = 5.0
            tracker.model_difference(1)
        assert [(f.kind, f.op) for f in s.faults] == [
            ("journal-mismatch", "ModelDifferenceTracker.model_difference[w]")
        ]
        assert s.faults[0].detail.count("nnz=2") == 2

    def test_integer_arrays_are_ignored(self):
        with sanitize(expected_dtype=np.float64, on_fault="record") as s:
            s.check_array(np.arange(4, dtype=np.int64), "test.indices")
        assert s.faults == []


class TestRecordMode:
    def test_faults_accumulate_without_raising(self):
        with sanitize(on_fault="record") as s:
            t = Tensor(BAD.copy(), requires_grad=True)
            t * 2.0
            t + t
        assert len(s.faults) >= 2
        assert all(f.kind == "non-finite" for f in s.faults)

    def test_invalid_on_fault_rejected(self):
        with pytest.raises(ValueError):
            Sanitizer(on_fault="explode")


class TestPatchLifecycle:
    def test_hooks_removed_on_exit(self):
        make_before = Tensor.__dict__["_make"]
        step_before = SGD.__dict__["step"]
        with sanitize():
            assert Tensor.__dict__["_make"] is not make_before
            assert SGD.__dict__["step"] is not step_before
        assert Tensor.__dict__["_make"] is make_before
        assert SGD.__dict__["step"] is step_before
        # and a NaN op no longer raises after exit
        Tensor(BAD.copy()) * 2.0

    def test_hooks_removed_even_when_fault_raises(self):
        make_before = Tensor.__dict__["_make"]
        with pytest.raises(NumericFault):
            with sanitize():
                Tensor(BAD.copy(), requires_grad=True) * 2.0
        assert Tensor.__dict__["_make"] is make_before

    def test_context_is_not_reentrant(self):
        s = sanitize()
        with s:
            with pytest.raises(RuntimeError):
                s.__enter__()

    def test_clean_training_numerics_pass(self):
        with sanitize():
            a = Tensor(np.ones((4, 3), dtype=np.float64), requires_grad=True)
            loss = (a * 0.5).sum()
            loss.backward()
            assert np.isfinite(a.grad).all()


def test_selfcheck_is_healthy():
    assert sanitizer_selfcheck() == []
