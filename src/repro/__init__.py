"""repro — reproduction of "Dual-Way Gradient Sparsification for
Asynchronous Distributed Deep Learning" (Yan et al., ICPP 2020).

Importing ``repro`` loads no subpackage; import the one you need:

* ``repro.core`` — DGS: SAMomentum, model-difference tracking, baselines
* ``repro.exec`` — unified Trainer front-end over pluggable execution backends
* ``repro.comm`` — typed frames + the channel layer under every backend
* ``repro.ps`` / ``repro.sim`` — parameter-server substrates (threads / virtual clock)
* ``repro.autograd`` / ``repro.nn`` — the from-scratch training substrate
* ``repro.compression`` — sparsifiers, quantiser, wire coding
* ``repro.data`` / ``repro.optim`` / ``repro.metrics`` — supporting pieces
* ``repro.harness`` — ready-made experiment runners for every table/figure
* ``repro.analysis`` — static analysis + runtime sanitizers for this repo
* ``repro.obs`` — unified tracing + metrics (spans, Chrome trace, profiling)
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
