PYTHON ?= python
export PYTHONPATH := src

.PHONY: lint arch-check concurrency-smoke sanitize-smoke test bench-smoke bench-kernels bench-e2e bench-shards trace-smoke backend-matrix comm-smoke run-report-smoke shard-smoke socket-smoke

## Static analysis: AST lint + lock discipline + lock graph + layering +
## sanitizer self-check.
lint:
	$(PYTHON) -m repro.analysis

## Architecture layering report: every package import edge vs the
## allowed-dependency matrix and the committed ARCH_baseline.json.
arch-check:
	$(PYTHON) -m repro.analysis arch

## Deadlock-detection smoke: the committed ABBA fixture must be caught
## statically (LCK004) AND dynamically (LockRegistry order inversion).
concurrency-smoke:
	$(PYTHON) -m repro.analysis abba-smoke tests/analysis/fixtures/abba.py

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

## Tier-1 test suite.
test:
	$(PYTHON) -m pytest -x -q

## Numerics tripwire (~90 s on 2 cores): every paper table/figure at
## --fast, each markdown report byte-compared with the sha256 recorded in
## benchmarks/results/FAST_DIGESTS.json.  Re-record an intended change with:
##   python benchmarks/check_fast_digests.py .bench-smoke --update
bench-smoke:
	rm -rf .bench-smoke
	$(PYTHON) -m repro run all --fast --out .bench-smoke > /dev/null
	$(PYTHON) benchmarks/check_fast_digests.py .bench-smoke
	rm -rf .bench-smoke

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

## One tiny workload on every registered execution backend; each result
## is validated against the unified TrainResult schema and must learn.
backend-matrix:
	$(PYTHON) -m repro.exec --iters 40 --workers 2

## Loopback smoke for the channel layer: every frame kind and payload
## type round-tripped over a real OS pipe.
comm-smoke:
	$(PYTHON) -m repro.comm

## Run-telemetry pipeline smoke: a traced 2-worker *process* run writes a
## run dir (manifest + metrics + merged multi-process trace), the report
## renders, the health gate passes on sane SLOs — and must FAIL on an
## impossible staleness SLO (the gate actually gates).
run-report-smoke:
	rm -rf .run-smoke
	$(PYTHON) -m repro.obs run-smoke --runs-dir .run-smoke --run-id ci --workers 2
	$(PYTHON) -m repro.obs report .run-smoke/ci
	$(PYTHON) -m repro.obs check .run-smoke/ci --max-staleness-p99 64 --min-samples-per-sec 1
	! $(PYTHON) -m repro.obs check .run-smoke/ci --max-staleness-p99 -1
	rm -rf .run-smoke

## Sharded parameter-server smoke: a 2-shard × 2-worker run on the
## threaded AND process backends, each writing a run dir with per-shard
## trace lanes and passing the health gate.  The process leg proves
## shard-routed frames cross a real OS pipe; the impossible-SLO check
## proves the gate still gates on sharded manifests.
shard-smoke:
	rm -rf .shard-smoke
	$(PYTHON) -m repro.obs run-smoke --runs-dir .shard-smoke --run-id threaded --backend threaded --shards 2 --workers 2
	$(PYTHON) -m repro.obs run-smoke --runs-dir .shard-smoke --run-id process --backend process --shards 2 --workers 2
	$(PYTHON) -m repro.obs check .shard-smoke/threaded --max-staleness-p99 64 --min-samples-per-sec 1
	$(PYTHON) -m repro.obs check .shard-smoke/process --max-staleness-p99 64 --min-samples-per-sec 1
	! $(PYTHON) -m repro.obs check .shard-smoke/process --max-staleness-p99 -1
	rm -rf .shard-smoke

## Socket-backend smoke: a 2-shard × 2-worker elastic run over real TCP
## loopback (forked workers connect + register through the membership
## handshake) writes a run dir and passes the health gate; then, over
## pipes and over TCP, checkpoint → restore → continue must reproduce the
## uninterrupted run's loss curve bitwise (`python -m repro.ps smoke`
## exits non-zero on any float of divergence).
socket-smoke:
	rm -rf .socket-smoke
	$(PYTHON) -m repro.obs run-smoke --runs-dir .socket-smoke --run-id socket --backend socket --shards 2 --workers 2
	$(PYTHON) -m repro.obs check .socket-smoke/socket --max-staleness-p99 64 --min-samples-per-sec 1
	! $(PYTHON) -m repro.obs check .socket-smoke/socket --max-staleness-p99 -1
	$(PYTHON) -m repro.ps smoke --checkpoint .socket-smoke/smoke.ckpt
	rm -rf .socket-smoke

## Shard-contention sweep (record-only, always exits 0): lock-wait p99 and
## throughput across 1/2/4/8 shards on the threaded backend, printed next
## to benchmarks/BENCH_shards.json; expectations that do not hold come out
## as "record-only:" lines.  Re-record with:
##   python benchmarks/bench_shard_contention.py --update
bench-shards:
	$(PYTHON) benchmarks/bench_shard_contention.py

## Traced 2-worker threaded + simulated runs, then validate the export
## (repro.obs convert exits non-zero on any schema violation).
trace-smoke:
	$(PYTHON) -m repro.obs smoke --jsonl .trace-smoke.jsonl --workers 2
	$(PYTHON) -m repro.obs convert .trace-smoke.jsonl .trace-smoke.json
	$(PYTHON) -m repro.obs summary .trace-smoke.jsonl
	rm -f .trace-smoke.jsonl .trace-smoke.json
