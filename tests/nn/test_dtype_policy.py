"""The compute dtype: models and datasets are float32 from the batch to the
wire, ``Module.astype`` is the one way to a float64 model, and no fused op
widens on the way."""

import tracemalloc

import numpy as np
import pytest

from repro.autograd import DEFAULT_DTYPE, Tensor, no_grad
from repro.core.layerops import gradients_of
from repro.data import make_blobs, make_image_classes, synthetic
from repro.nn import (
    MLP,
    BatchNorm2d,
    Conv2d,
    Linear,
    MicroResNet,
    SimpleCNN,
)
from repro.nn.loss import cross_entropy
from repro.optim import SGD

MODELS = {
    "mlp": (lambda: MLP(768, (1024, 128), 10, seed=0), (8, 768)),
    "cnn": (lambda: SimpleCNN(3, 10, width=4, seed=0), (8, 3, 8, 8)),
    "micro_resnet": (
        lambda: MicroResNet(3, 10, widths=(4, 8), blocks_per_stage=1, seed=0),
        (8, 3, 8, 8),
    ),
}


def _step_and_eval(model, x, y):
    """One SGD step and one eval pass; every array the two touched, by name."""
    model.train()
    logits = model(Tensor(x))
    loss = cross_entropy(logits, y)
    model.zero_grad()
    loss.backward()
    grads = gradients_of(model)
    SGD(model.parameters(), lr=0.01, momentum=0.9).step()
    model.eval()
    with no_grad():
        eval_logits = model(Tensor(x))
    arrays = {"logits": logits.data, "loss": loss.data, "eval_logits": eval_logits.data}
    arrays.update({f"param:{n}": p.data for n, p in model.named_parameters()})
    arrays.update({f"grad:{n}": g for n, g in grads.items()})
    arrays.update({f"buffer:{n}": b for n, b in model.named_buffers()})
    return arrays, grads


@pytest.mark.parametrize("name", MODELS)
class TestModelsComputeAtTheirOwnWidth:
    def _batch(self, name):
        rng = np.random.default_rng(1)
        shape = MODELS[name][1]
        x = rng.normal(size=shape).astype(np.float32)
        return x, rng.integers(0, 10, size=shape[0])

    def test_default_model_is_float32_end_to_end(self, name):
        x, y = self._batch(name)
        arrays, _ = _step_and_eval(MODELS[name][0](), x, y)
        assert {k: a.dtype for k, a in arrays.items() if a.dtype != np.float32} == {}

    def test_astype_float64_is_float64_end_to_end(self, name):
        x, y = self._batch(name)
        model = MODELS[name][0]().astype(np.float64)
        arrays, _ = _step_and_eval(model, x.astype(np.float64), y)
        assert {k: a.dtype for k, a in arrays.items() if a.dtype != np.float64} == {}

    def test_float32_gradient_agrees_with_the_float64_oracle(self, name):
        """Same θ0 (widening is exact), same batch: the float32 gradient is
        the float64 one to 1e-4 of its norm, layer by layer."""
        x, y = self._batch(name)
        _, g32 = _step_and_eval(MODELS[name][0](), x, y)
        _, g64 = _step_and_eval(MODELS[name][0]().astype(np.float64), x.astype(np.float64), y)
        for layer, want in g64.items():
            err = np.linalg.norm(g32[layer] - want) / max(np.linalg.norm(want), 1e-12)
            assert err < 1e-4, (layer, err)

    def test_gradients_are_handed_over_without_a_cast(self, name):
        """What ``WorkerStrategy.prepare`` receives: float32, C-contiguous, owned."""
        x, y = self._batch(name)
        _, grads = _step_and_eval(MODELS[name][0](), x, y)
        for layer, g in grads.items():
            assert g.dtype == np.float32 and g.flags.c_contiguous and g.flags.owndata, layer


class TestMixedInput:
    def test_float64_batch_into_float32_linear_computes_float32(self, rng):
        lin = Linear(6, 3, rng=rng)
        x = Tensor(rng.normal(size=(4, 6)), requires_grad=True)  # float64
        out = lin(x)
        assert out.dtype == np.float32
        out.sum().backward()
        assert lin.weight.grad.dtype == lin.bias.grad.dtype == np.float32
        assert x.grad.dtype == np.float64  # a gradient has its tensor's dtype
        np.testing.assert_allclose(
            out.data, x.data @ lin.weight.data.T + lin.bias.data, rtol=1e-5, atol=1e-6
        )

    def test_float64_batch_into_float32_conv_computes_float32(self, rng):
        conv = Conv2d(2, 3, 3, padding=1, rng=rng)
        out = conv(Tensor(rng.normal(size=(2, 2, 4, 4))))
        assert out.dtype == np.float32
        out.sum().backward()
        assert conv.weight.grad.dtype == np.float32

    def test_float64_batch_into_a_float32_model(self, rng):
        model = SimpleCNN(3, 4, width=4, seed=0)
        loss = cross_entropy(model(Tensor(rng.normal(size=(4, 3, 8, 8)))), np.arange(4))
        loss.backward()
        assert loss.dtype == np.float32
        assert {p.grad.dtype for p in model.parameters()} == {np.dtype(np.float32)}
        assert {b.dtype for _, b in model.named_buffers()} == {np.dtype(np.float32)}

    def test_batchnorm_running_stats_keep_the_buffers_dtype(self, rng):
        bn = BatchNorm2d(3)
        bn(Tensor(rng.normal(size=(8, 3, 2, 2))))  # float64 batch statistics
        assert bn.running_mean.dtype == bn.running_var.dtype == np.float32
        assert np.any(bn.running_mean != 0)


class TestModuleAstype:
    def test_in_place_parameters_and_buffers(self):
        model = SimpleCNN(3, 4, width=4, seed=0)
        before = [p for p in model.parameters()]
        assert model.astype(np.float64) is model
        assert [p for p in model.parameters()] == before  # the same Parameter objects
        assert {p.dtype for p in model.parameters()} == {np.dtype(np.float64)}
        assert {b.dtype for _, b in model.named_buffers()} == {np.dtype(np.float64)}
        assert model.bn1.running_var is model._modules["bn1"]._buffers["running_var"]

    def test_widening_holds_the_same_theta0(self):
        narrow = MLP(12, (8,), 3, seed=5)
        wide = MLP(12, (8,), 3, seed=5).astype(np.float64)
        for (_, a), (_, b) in zip(narrow.named_parameters(), wide.named_parameters()):
            np.testing.assert_array_equal(a.data.astype(np.float64), b.data)

    def test_gradients_are_dropped(self, rng):
        lin = Linear(3, 2, rng=rng)
        lin(Tensor(np.ones((1, 3), dtype=np.float32))).sum().backward()
        lin.astype(np.float64)
        assert lin.weight.grad is None and lin.bias.grad is None


class TestLoadBuffer:
    def test_float64_checkpoint_into_float32_model_stays_float32(self, rng):
        source = BatchNorm2d(3).astype(np.float64)
        source.train()
        source(Tensor(rng.normal(2.0, 3.0, size=(8, 3, 4, 4))))
        state = source.state_dict()
        assert state["buffer:running_mean"].dtype == np.float64

        target = BatchNorm2d(3)
        target.load_state_dict(state)
        for name in ("running_mean", "running_var"):
            loaded = target._buffers[name]
            assert loaded.dtype == np.float32 and getattr(target, name) is loaded
            np.testing.assert_array_equal(loaded, state[f"buffer:{name}"].astype(np.float32))
            assert not np.shares_memory(loaded, state[f"buffer:{name}"])

    def test_nested_buffers(self):
        source, target = SimpleCNN(3, 4, width=4, seed=0), SimpleCNN(3, 4, width=4, seed=1)
        source.bn2.set_buffer("running_mean", np.full(8, 0.25))
        target.load_state_dict(source.state_dict())
        assert target.bn2.running_mean.dtype == np.float32
        np.testing.assert_array_equal(target.bn2.running_mean, 0.25)

    def test_wrong_shape_raises(self):
        target = BatchNorm2d(3)
        state = target.state_dict()
        state["buffer:running_var"] = np.ones(4)
        with pytest.raises(ValueError, match="running_var"):
            target.load_state_dict(state)
        assert target.running_var.shape == (3,)

    def test_unknown_buffer_raises(self):
        with pytest.raises(KeyError):
            BatchNorm2d(3).load_state_dict({"buffer:running_median": np.zeros(3)})


class TestDatasetsAreFloat32:
    def test_generators_hand_out_float32_inputs(self):
        for ds in (
            make_blobs(64, dim=5),
            make_image_classes(64, size=4),
        ):
            assert ds.x_train.dtype == ds.x_val.dtype == np.float32, ds.name
            assert ds.shard(2, 0).x_train.dtype == np.float32
            assert np.issubdtype(ds.y_train.dtype, np.integer)

    def test_default_dtype_is_what_the_datasets_use(self):
        assert make_blobs(8).x_train.dtype == DEFAULT_DTYPE

    @pytest.mark.parametrize("n_samples", [100, 256, 700])  # under, at, over a row block
    def test_blobs_are_the_float64_formula_rounded(self, n_samples):
        """Block-wise generation consumes the Generator's stream exactly as
        the one-shot double formula did: same values, rounded once."""
        got = make_blobs(n_samples, num_classes=5, dim=7, sep=0.5, noise=1.5, seed=3)
        rng = np.random.default_rng(3)
        centers = rng.normal(0.0, 0.5, size=(5, 7))
        y = rng.integers(0, 5, size=n_samples)
        x = centers[y] + rng.normal(0.0, 1.5, size=(n_samples, 7))
        xtr, ytr, xv, yv = _fancy_index_split(x, y, 0.2, rng)
        np.testing.assert_array_equal(got.x_train, xtr.astype(np.float32))
        np.testing.assert_array_equal(got.x_val, xv.astype(np.float32))
        np.testing.assert_array_equal(got.y_train, ytr)
        np.testing.assert_array_equal(got.y_val, yv)

    def test_blobs_peak_memory_is_the_result_alone(self):
        """The benchmark's dataset: 8192 × 768.  The one-shot double formula
        traced 101.7 MB (and was what ``peak_rss_mb`` measured on the
        real-transport workloads); float32 built block-wise with a
        fancy-index split traced 51.3 MB, the array plus its copy.  Split in
        place, the array is all there is, plus 1.5 MB row blocks."""
        tracemalloc.start()
        try:
            ds = make_blobs(8192, dim=768)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        result = ds.x_train.nbytes + ds.x_val.nbytes
        assert result == 8192 * 768 * 4
        assert peak <= 1.2 * result, f"make_blobs traced a peak of {peak / 1e6:.1f} MB"


def _fancy_index_split(x, y, val_fraction, rng):
    """The reference split: the same permutation, applied by fancy-index
    copies (what ``_split`` did before it permuted in place)."""
    perm = rng.permutation(len(x))
    n_val = max(1, int(round(len(x) * val_fraction)))
    val, train = perm[:n_val], perm[n_val:]
    return x[train], y[train], x[val], y[val]


GENERATORS = {
    "blobs": lambda seed: make_blobs(300, num_classes=4, dim=6, seed=seed),
    "images": lambda seed: make_image_classes(120, size=4, seed=seed),
}


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("name", GENERATORS)
class TestSplitInPlace:
    def test_bitwise_the_fancy_index_split(self, name, seed, monkeypatch):
        got = GENERATORS[name](seed)
        monkeypatch.setattr(synthetic, "_split", _fancy_index_split)
        ref = GENERATORS[name](seed)
        for field in ("x_train", "y_train", "x_val", "y_val"):
            a, b = getattr(got, field), getattr(ref, field)
            assert a.dtype == b.dtype and a.shape == b.shape, field
            assert a.tobytes() == b.tobytes(), field

    def test_train_and_val_are_disjoint_views_of_one_buffer(self, name, seed):
        ds = GENERATORS[name](seed)
        x_train, x_val = ds.x_train, ds.x_val
        assert x_train.flags.c_contiguous and x_val.flags.c_contiguous
        assert x_train.base is not None and x_train.base is x_val.base
        assert not np.shares_memory(x_train, x_val)
        # x_val is the head of the buffer, x_train the rest of it
        start = x_val.__array_interface__["data"][0]
        assert x_train.__array_interface__["data"][0] == start + x_val.nbytes
        assert x_train.base.nbytes == x_train.nbytes + x_val.nbytes

    def test_shards_of_the_views_stay_read_only(self, name, seed):
        ds = GENERATORS[name](seed)
        shard = ds.shard(3, 1)
        assert not shard.x_train.flags.writeable and not shard.y_train.flags.writeable
        assert np.shares_memory(shard.x_train, ds.x_train)
        np.testing.assert_array_equal(shard.x_train, ds.x_train[1::3])
