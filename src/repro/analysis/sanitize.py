"""Opt-in numeric sanitizer: NaN/Inf, dtype drift and array layout, per op.

Aggressive dual-way sparsification plus SAMomentum's ``1/m`` rescale is
exactly the kind of numerics that degrades silently — compression bugs show
up as slow accuracy loss, not crashes.  ``with sanitize():`` instruments the
three numeric surfaces of the system and reports the *offending op*, not
the eventual symptom:

* **autograd** — every ``Tensor`` op output and every accumulated gradient;
* **optim**    — parameters after each optimizer ``step()``;
* **compression** — sparsifier ``mask()`` inputs, codec
  ``to_dense()``/``add_into()`` outputs, the layout of every gradient
  entering a worker strategy's ``prepare()``, and every model-difference
  layer the server's tracker answers from its dirty-index journal.

Checks: non-finite values (NaN/Inf) always; *dtype drift* — a floating
array whose dtype differs from the stream's established dtype (float64
creep / float32 truncation) — once a baseline dtype is known (taken from
the first array seen, or pinned via ``expected_dtype``: ``python -m repro
run --sanitize`` pins float32, the width of every model, dataset, arena and
wire value, so the first float64 array is the op that widened); *layout* — a
gradient handed to a strategy that is not C-contiguous (a transposed view
computes the same numbers several times slower: every pass against the
strategy's C-ordered state strides by a row); *journal* — a reply layer
the tracker derived from its journal that is not, bit for bit, what the
dense scan of ``M − v_k`` returns, with ``v_k`` materialised from ``M`` and
a shadow journal the sanitizer keeps itself (each update's changed bits of
``M``, found by a dense before/after comparison): an index the journal
lost, or a pre-update value it holds wrong, is a parameter a worker never
receives correctly — no NaN, no crash, just drift.

The context is reentrant-safe per instance and restores every patched
callable on exit.  ``on_fault='record'`` collects faults instead of
raising, for harness sweeps where one bad op should not kill the run.
"""

from __future__ import annotations

import sys
import weakref
from typing import Callable

import numpy as np

__all__ = ["NumericFault", "Sanitizer", "sanitize", "sanitizer_selfcheck"]


class NumericFault(RuntimeError):
    """A numeric invariant violated by one op."""

    def __init__(self, op: str, kind: str, detail: str) -> None:
        super().__init__(f"[{kind}] in {op}: {detail}")
        self.op = op
        #: ``'non-finite'``, ``'dtype-drift'``, ``'layout'`` or ``'journal-mismatch'``
        self.kind = kind
        self.detail = detail


def _subclasses(cls: type):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _caller_op(depth: int = 2) -> str:
    """Qualified name of the frame that invoked the patched op."""
    frame = sys._getframe(depth)
    code = frame.f_code
    return getattr(code, "co_qualname", code.co_name)


class Sanitizer:
    """Context manager installing the numeric checks; see module docstring."""

    def __init__(
        self,
        expected_dtype: "np.dtype | type | None" = None,
        check_autograd: bool = True,
        check_optim: bool = True,
        check_compression: bool = True,
        on_fault: str = "raise",
    ) -> None:
        if on_fault not in ("raise", "record"):
            raise ValueError(f"on_fault must be 'raise' or 'record', got {on_fault!r}")
        self.expected_dtype = np.dtype(expected_dtype) if expected_dtype is not None else None
        self.check_autograd = check_autograd
        self.check_optim = check_optim
        self.check_compression = check_compression
        self.on_fault = on_fault
        self.faults: "list[NumericFault]" = []
        self._patches: "list[tuple[object, str, object]]" = []
        self._inferred_dtype: "np.dtype | None" = self.expected_dtype

    # ------------------------------------------------------------------
    def check_array(self, arr: object, op: str) -> None:
        """Check one array against the sanitizer's invariants."""
        if not isinstance(arr, np.ndarray):
            return
        if np.issubdtype(arr.dtype, np.floating):
            if self._inferred_dtype is None:
                self._inferred_dtype = arr.dtype
            elif arr.dtype != self._inferred_dtype:
                self._fault(
                    op,
                    "dtype-drift",
                    f"array is {arr.dtype}, stream dtype is {self._inferred_dtype}",
                )
            if arr.size and not np.isfinite(arr).all():
                n_nan = int(np.isnan(arr).sum())
                n_inf = int(np.isinf(arr).sum())
                self._fault(op, "non-finite", f"{n_nan} NaN / {n_inf} Inf of {arr.size} values")

    def check_layout(self, arr: object, op: str) -> None:
        """Flag an array that is not C-contiguous."""
        if isinstance(arr, np.ndarray) and not arr.flags.c_contiguous:
            self._fault(
                op,
                "layout",
                f"array of shape {arr.shape} has strides {arr.strides}, not C-contiguous",
            )

    def _fault(self, op: str, kind: str, detail: str) -> None:
        fault = NumericFault(op, kind, detail)
        self.faults.append(fault)
        if self.on_fault == "raise":
            raise fault

    # ------------------------------------------------------------------
    def _patch(self, owner: object, name: str, wrapper: "Callable[..., object]") -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapper)

    def _install_autograd(self) -> None:
        from ..autograd.tensor import Tensor

        sanitizer = self
        orig_make = Tensor._make
        orig_accumulate = Tensor._accumulate

        def make(self, data, parents, backward):
            out = orig_make(self, data, parents, backward)
            sanitizer.check_array(out.data, _caller_op())
            return out

        def accumulate(self, grad, owned=False):
            orig_accumulate(self, grad, owned)
            sanitizer.check_array(self.grad, _caller_op())

        self._patch(Tensor, "_make", make)
        self._patch(Tensor, "_accumulate", accumulate)

    def _install_optim(self) -> None:
        from ..optim import SGD

        sanitizer = self
        orig_step = SGD.step

        def step(self):
            orig_step(self)
            for p in self.params:
                sanitizer.check_array(p.data, "SGD.step")

        self._patch(SGD, "step", step)

    def _install_compression(self) -> None:
        from ..compression import coding
        from ..compression.base import Sparsifier
        from ..core import WorkerStrategy  # the package import registers the extensions

        sanitizer = self

        for cls in _subclasses(WorkerStrategy):
            if "prepare" not in cls.__dict__:
                continue
            orig_prepare = cls.__dict__["prepare"]

            def prepare(self, grads, lr, _orig=orig_prepare, _name=cls.__name__):
                for layer, g in grads.items():
                    sanitizer.check_layout(g, f"{_name}.prepare[{layer}]")
                return _orig(self, grads, lr)

            self._patch(cls, "prepare", prepare)

        for cls in _subclasses(Sparsifier):
            if "mask" not in cls.__dict__:
                continue
            orig_mask = cls.__dict__["mask"]

            def mask(self, arr, _orig=orig_mask, _name=cls.__name__):
                sanitizer.check_array(arr, f"{_name}.mask")
                return _orig(self, arr)

            self._patch(cls, "mask", mask)

        for codec_name in ("SparseTensor", "DenseTensor", "BitmapTensor", "QuantizedSparseTensor"):
            cls = getattr(coding, codec_name, None)
            if cls is None:
                continue
            if "to_dense" in cls.__dict__:
                orig_td = cls.__dict__["to_dense"]

                def to_dense(self, *args, _orig=orig_td, _name=codec_name, **kwargs):
                    out = _orig(self, *args, **kwargs)
                    sanitizer.check_array(out, f"{_name}.to_dense")
                    return out

                self._patch(cls, "to_dense", to_dense)
            if "add_into" in cls.__dict__:
                orig_ai = cls.__dict__["add_into"]

                def add_into(self, dest, _orig=orig_ai, _name=codec_name):
                    _orig(self, dest)
                    sanitizer.check_array(dest, f"{_name}.add_into")

                self._patch(cls, "add_into", add_into)

    def _install_tracker(self) -> None:
        from ..compression.coding import DenseTensor, encode_best
        from ..core.tracker import ModelDifferenceTracker

        sanitizer = self
        orig_apply = ModelDifferenceTracker.__dict__["apply_update"]
        orig = ModelDifferenceTracker.__dict__["_layer_difference"]
        # tracker -> one (flat indices whose bits changed, M there before)
        # per update applied under this sanitizer, as many as it journals
        shadows: "weakref.WeakKeyDictionary[ModelDifferenceTracker, list]" = (
            weakref.WeakKeyDictionary()
        )

        def apply_update(self, update):
            if self._journal is None:
                return orig_apply(self, update)
            before = self.M.flat.copy()
            t = orig_apply(self, update)
            bits = f"u{before.itemsize}"
            changed = np.flatnonzero(before.view(bits) != self.M.flat.view(bits))
            shadow = shadows.setdefault(self, [])
            shadow.append((changed, before[changed]))
            del shadow[: len(shadow) - len(self._journal)]
            return t

        def materialised_vk(tracker, name, behind):
            """Layer ``name`` of ``v_k``: ``M`` rewound through the shadow."""
            start, stop = tracker.M.span(name)
            v = tracker.M[name].reshape(-1).copy()
            shadow = shadows.get(tracker, [])
            for changed, pre in reversed(shadow[len(shadow) - behind :]):
                inside = (changed >= start) & (changed < stop)
                v[changed[inside] - start] = pre[inside]
            return v.reshape(tracker.M[name].shape)

        def same(got, want) -> bool:
            if type(got) is not type(want):
                return False
            if isinstance(want, DenseTensor):
                return got.data.tobytes() == want.data.tobytes()
            return (
                np.array_equal(got.indices, want.indices)
                and got.values.tobytes() == want.values.tobytes()
            )

        def layer_difference(self, name, dirty):
            got = orig(self, name, dirty)
            if len(shadows.get(self, ())) < len(dirty):
                return got  # owed updates applied before the sanitizer was on
            want = encode_best(self.M[name] - materialised_vk(self, name, len(dirty)))
            if not same(got, want):
                sanitizer._fault(
                    f"ModelDifferenceTracker.model_difference[{name}]",
                    "journal-mismatch",
                    f"journal path sent {type(got).__name__} nnz={got.nnz}, "
                    f"dense scan gives {type(want).__name__} nnz={want.nnz}",
                )
            return got

        self._patch(ModelDifferenceTracker, "apply_update", apply_update)
        self._patch(ModelDifferenceTracker, "_layer_difference", layer_difference)

    # ------------------------------------------------------------------
    def __enter__(self) -> "Sanitizer":
        if self._patches:
            raise RuntimeError("Sanitizer context is not reentrant; create a new one")
        if self.check_autograd:
            self._install_autograd()
        if self.check_optim:
            self._install_optim()
        if self.check_compression:
            self._install_compression()
            self._install_tracker()
        return self

    def __exit__(self, *exc: object) -> None:
        while self._patches:
            owner, name, orig = self._patches.pop()
            setattr(owner, name, orig)


def sanitize(
    expected_dtype: "np.dtype | type | None" = None,
    check_autograd: bool = True,
    check_optim: bool = True,
    check_compression: bool = True,
    on_fault: str = "raise",
) -> Sanitizer:
    """Build a :class:`Sanitizer` context (``with sanitize() as s: ...``)."""
    return Sanitizer(
        expected_dtype=expected_dtype,
        check_autograd=check_autograd,
        check_optim=check_optim,
        check_compression=check_compression,
        on_fault=on_fault,
    )


def sanitizer_selfcheck() -> "list[str]":
    """Verify the sanitizer both passes clean numerics and trips on bad ones.

    Returns a list of problems (empty == healthy).  This is the third CLI
    pillar: it proves the hooks are actually attached to the current code —
    a refactor that renames ``Tensor._make`` or ``Sparsifier.mask`` breaks
    detection silently otherwise.
    """
    from ..autograd.tensor import Tensor
    from ..compression.coding import SparseTensor
    from ..compression.topk import TopKSparsifier
    from ..nn.module import Parameter
    from ..optim.sgd import SGD

    problems: list[str] = []

    # 1) clean numerics must pass untouched
    try:
        with sanitize():
            a = Tensor(np.ones(8, dtype=np.float64), requires_grad=True)
            loss = (a * 2.0).sum()
            loss.backward()
            p = Parameter(np.ones(8, dtype=np.float64))
            p.grad = np.full(8, 0.5, dtype=np.float64)
            SGD([p], lr=0.1).step()
            arr = np.linspace(-1.0, 1.0, 64, dtype=np.float64)
            sp = TopKSparsifier(0.25)
            dense = SparseTensor(
                np.flatnonzero(sp.mask(arr)).astype(np.int64),
                arr[sp.mask(arr)],
                arr.shape,
            ).to_dense()
            assert dense.shape == arr.shape
    except NumericFault as fault:
        problems.append(f"sanitizer flagged clean numerics: {fault}")

    # 2) each hook family must trip on a seeded NaN
    bad = np.array([1.0, np.nan, 3.0], dtype=np.float64)
    with sanitize(on_fault="record") as s:
        Tensor(bad, requires_grad=True) * 2.0
        autograd_hits = len(s.faults)
        TopKSparsifier(0.5).mask(bad)
        compression_hits = len(s.faults) - autograd_hits
        p = Parameter(np.ones(3, dtype=np.float64))
        p.grad = bad
        SGD([p], lr=0.1).step()
        optim_hits = len(s.faults) - autograd_hits - compression_hits
    if not autograd_hits:
        problems.append("autograd hook did not fire on a NaN tensor op")
    if not compression_hits:
        problems.append("compression hook did not fire on a NaN sparsifier input")
    if not optim_hits:
        problems.append("optim hook did not fire on a NaN gradient step")

    # 3) dtype drift must be detected
    with sanitize(expected_dtype=np.float64, on_fault="record") as s:
        Tensor(np.ones(4, dtype=np.float64)) + Tensor(np.ones(4, dtype=np.float64))
        before = len(s.faults)
        s.check_array(np.ones(4, dtype=np.float32), "selfcheck.float32-creep")
        if len(s.faults) == before:
            problems.append("dtype-drift check did not fire on a float32 array")

    # 3b) float32 weight × Python scalar stays float32 (a scalar wrapped as a
    # 0-d float64 array is strong in NumPy's promotion and would re-widen
    # the graph); the same graph meeting a real float64 operand is drift
    with sanitize(expected_dtype=np.float32, on_fault="record") as s:
        w = Parameter(np.ones(4, dtype=np.float32))
        ((w * 2.0 + 1) / 3.0).sum().backward()
        if s.faults:
            problems.append(f"float32 weight × Python scalar did not stay float32: {s.faults[0]}")
        before = len(s.faults)
        w * Tensor(np.float64(2.0))
        if [f.kind for f in s.faults[before:]] != ["dtype-drift"]:
            problems.append("dtype-drift check did not fire on a float64 operand widening a float32 graph")

    # 4) a transposed gradient entering a strategy must be flagged, and only that
    from ..core.strategies import DenseStrategy

    with sanitize(on_fault="record") as s:
        strategy = DenseStrategy({"w": (3, 2)})
        strategy.prepare({"w": np.ones((3, 2), dtype=np.float64)}, 0.1)
        if s.faults:
            problems.append(f"sanitizer flagged a C-ordered gradient: {s.faults[0]}")
        before = len(s.faults)
        strategy.prepare({"w": np.ones((2, 3), dtype=np.float64).T}, 0.1)
        if [f.kind for f in s.faults[before:]] != ["layout"]:
            problems.append("layout check did not fire on a transposed gradient")

    # 5) a journal that lost an index, or holds a wrong pre-update value,
    # must be caught by the dense re-derivation
    from ..core.tracker import ModelDifferenceTracker

    def journal_tracker() -> ModelDifferenceTracker:
        tracker = ModelDifferenceTracker({"w": (64,)}, 2, dtype=np.float64)
        tracker.apply_update(
            {"w": SparseTensor(np.array([3, 40]), np.array([1.0, -2.0]), (64,))}
        )
        return tracker

    def lose_index(tracker: ModelDifferenceTracker) -> None:
        idx, pre = tracker._journal[-1]["w"]
        tracker._journal[-1]["w"] = (idx[:1], pre[:1])

    def corrupt_pre_value(tracker: ModelDifferenceTracker) -> None:
        tracker._journal[-1]["w"][1][0] = 7.0

    with sanitize(on_fault="record") as s:
        journal_tracker().model_difference(1)
        if s.faults:
            problems.append(f"sanitizer flagged a correct journal reply: {s.faults[0]}")
    for corrupt, what in (
        (lose_index, "a reply missing an index"),
        (corrupt_pre_value, "a corrupted pre-update value"),
    ):
        with sanitize(on_fault="record") as s:
            tracker = journal_tracker()
            corrupt(tracker)
            tracker.model_difference(1)
        if [f.kind for f in s.faults] != ["journal-mismatch"]:
            problems.append(f"journal check did not fire exactly once on {what}")

    return problems
