PYTHON ?= python
export PYTHONPATH := src

.PHONY: lint arch-check sanitize-smoke test bench-kernels bench-e2e examples ps-smoke

## Static analysis: AST lint + lock discipline + lock graph + layering +
## sanitizer self-check.
lint:
	$(PYTHON) -m repro.analysis

## Architecture layering report: every package import edge vs the
## allowed-dependency matrix and the committed ARCH_baseline.json.
arch-check:
	$(PYTHON) -m repro.analysis arch

## Numeric sanitizer on real runs (~30 s on 2 cores: memory 0.1 s,
## table3 18.6 s, ablation-combination ~10 s): the §5.6.2 memory table,
## Table 3's --fast sweep, whose 8-worker rows run the simulator with
## shared per-thread scratch, and the §6 combinations, whose quantised
## payloads are materialised at the arena's dtype.
## Any NaN/Inf, float64 drift or non-C-ordered gradient exits non-zero.
sanitize-smoke:
	$(PYTHON) -m repro run memory --fast --sanitize > /dev/null
	$(PYTHON) -m repro run table3 --fast --sanitize > /dev/null
	$(PYTHON) -m repro run ablation-combination --fast --sanitize > /dev/null

## Tier-1 test suite.  It includes the numerics tripwire: every paper
## table/figure at --fast, each markdown report hashed against
## benchmarks/results/FAST_DIGESTS.json (tests/harness/test_experiments.py).
test:
	$(PYTHON) -m pytest -x -q

## Hot-path kernel regression gate: measured speedup ratios must stay
## within 1.3x of the committed benchmarks/BENCH_kernels.json baseline.
## Re-baseline after an intentional perf change with:
##   python benchmarks/check_regression.py --update
bench-kernels:
	$(PYTHON) benchmarks/check_regression.py

## End-to-end benchmark smoke (~30-50 s): the four BENCHMARK.json workloads
## at N/10.  Exit code only, no timing gate — what it checks is the
## benchmark's own correctness: analytic byte oracle, exactly-k frames,
## lockstep transport == direct bitwise parity, trace.coverage >= 0.90.
## Full run (~3 min): python benchmarks/e2e/run.py
bench-e2e:
	$(PYTHON) benchmarks/e2e/run.py --quick

## Every example end to end, with --fast where it accepts it (~30 s on
## 2 cores); any non-zero exit fails.  telemetry.py writes under runs/.
examples:
	$(PYTHON) examples/quickstart.py --fast > /dev/null
	$(PYTHON) examples/combined_compression.py --fast > /dev/null
	$(PYTHON) examples/custom_strategy.py --fast > /dev/null
	$(PYTHON) examples/federated_scale.py --fast > /dev/null
	$(PYTHON) examples/low_bandwidth_training.py --fast > /dev/null
	$(PYTHON) examples/telemetry.py --fast > /dev/null
	$(PYTHON) examples/process_async.py > /dev/null

## The two-terminal deployment demo as one smoke (~5 s): `repro.ps serve`
## on a fixed loopback port and two `repro.ps worker` processes, each
## bounded by `timeout`.  Fails unless all three exit 0 and the server
## prints crashes=0, and unless a worker id outside [0, --workers) is a
## usage error (exit 2) before it connects.
PS_SMOKE_ADDR := 127.0.0.1:5555
ps-smoke:
	@out=$$(mktemp); status=0; \
	timeout 20 $(PYTHON) -m repro.ps worker --id 2 --workers 2 2>/dev/null; test $$? -eq 2 || status=1; \
	timeout 120 $(PYTHON) -m repro.ps serve --bind $(PS_SMOKE_ADDR) --workers 2 --iterations 10 > $$out & server=$$!; \
	timeout 120 $(PYTHON) -m repro.ps worker --connect $(PS_SMOKE_ADDR) --id 0 --iterations 10 & w0=$$!; \
	timeout 120 $(PYTHON) -m repro.ps worker --connect $(PS_SMOKE_ADDR) --id 1 --iterations 10 & w1=$$!; \
	wait $$w0 || status=1; wait $$w1 || status=1; wait $$server || status=1; \
	cat $$out; grep -q "crashes=0" $$out || status=1; rm -f $$out; exit $$status
