PYTHON ?= python
export PYTHONPATH := src

.PHONY: lint arch-check sanitize-smoke test bench-kernels bench-e2e bench-shards examples

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
	$(PYTHON) examples/threaded_async.py > /dev/null

## Shard-contention sweep (record-only, always exits 0): lock-wait p99 and
## throughput across 1/2/4/8 shards on the threaded backend, printed next
## to benchmarks/BENCH_shards.json; expectations that do not hold come out
## as "record-only:" lines.  Re-record with:
##   python benchmarks/bench_shard_contention.py --update
bench-shards:
	$(PYTHON) benchmarks/bench_shard_contention.py
