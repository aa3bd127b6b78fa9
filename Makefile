# Development entry points.  All targets assume the repo root as cwd and
# use the src/ layout without installation.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

# Worker processes for experiment tasks (see docs/EXECUTION.md); results
# are identical at any level.  Example: make run-all JOBS=4
JOBS ?= 1
# Task-result cache directory used by run-all (re-runs resume from it).
CACHE_DIR ?= .ccs-bench-cache

.PHONY: test engines examples lint typecheck bench bench-smoke bench-hotpath bench-large bench-exec bench-recovery golden golden-experiments fixture-journal-v1 run-all serve-smoke chaos-smoke chaos shard-smoke recovery-smoke e2e-smoke

# Tier-1 gate: the full unit/property/golden suite.
test:
	$(PYTHON) -m pytest -x -q

# The two engine steps of CI: the array engine forced on the game and
# golden suites (parity with the object engine), then the object engine
# forced on the suites whose daemon and drivers resolve `auto` to the
# array scan, so the object branch runs end to end too.
engines:
	CCS_ENGINE=array $(PYTHON) -m pytest -x -q --durations=10 \
		tests/test_game_array.py tests/test_game.py \
		tests/test_game_incremental.py tests/test_regression_golden.py
	CCS_ENGINE=object $(PYTHON) -m pytest -x -q \
		tests/test_service_plan.py tests/test_shard_identity.py \
		tests/test_service_faults.py tests/test_service_kernel.py \
		tests/test_regression_golden.py tests/test_game_incremental.py \
		tests/test_pricing_rows.py

# The request-stream examples (about 15 s): online policies over a
# generated stream, and the daemon over one with its journal truncated
# and recovered.  A crash or a broken import fails the target.
examples:
	$(PYTHON) examples/online_service.py
	$(PYTHON) examples/charging_service.py

# Domain-aware static analysis: determinism / numeric / state-discipline
# invariants (see docs/LINTING.md).  Exit 0 means no unbaselined findings.
# Runs all rules — per-file (CCS001–CCS008) and whole-program
# (CCS009–CCS012, docs/DETERMINISM.md) — over the full analyzed scope,
# under the CI wall-time budget: the whole analysis (one parse, call
# graph, purity, taint; 170+ files) must stay under 10 seconds so it can
# gate every push.
lint:
	$(PYTHON) -m repro.lint src benchmarks examples --time-budget 10

# Static types.  Permissive by default with a strict core (pyproject
# [tool.mypy]); requires mypy (pip install mypy) — CI always runs it.
typecheck:
	$(PYTHON) -m mypy

# Quick wall-time regression guard for the CCSGA hot path (also part of
# the tier-1 suite via the bench_smoke marker).  Fails only on a >3x
# regression against the budget recorded in benchmarks/BENCH_ccsga.json.
bench-smoke:
	$(PYTHON) -m pytest -q -m bench_smoke tests/test_bench_smoke.py

# Re-measure the hot path (both engines, n <= 800) and rewrite
# benchmarks/BENCH_ccsga.json, keeping the checked-in large-case numbers.
bench-hotpath:
	$(PYTHON) benchmarks/bench_core_hotpath.py --skip-large

# Full hot-path re-measurement including the array-engine large cases
# (n = 5,000 / 20,000 / 50,000; the object engine is capped at n <= 800).
bench-large:
	$(PYTHON) benchmarks/bench_core_hotpath.py

# The full experiment-reproduction benchmark suite (figures + tables).
bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

# The whole evaluation through the task executor: parallel with JOBS>1,
# resumable from CACHE_DIR if interrupted.
run-all:
	$(PYTHON) -m repro.cli --all --trials 3 --jobs $(JOBS) --cache-dir $(CACHE_DIR)

# Measure the execution subsystem (serial vs parallel vs cache replay)
# and rewrite benchmarks/BENCH_exec.json.
bench-exec:
	$(PYTHON) benchmarks/bench_exec.py --jobs $(if $(filter 1,$(JOBS)),4,$(JOBS))

# Measure crash recovery (snapshot + suffix replay vs full replay) and
# rewrite benchmarks/BENCH_recovery.json.
bench-recovery:
	$(PYTHON) benchmarks/bench_recovery.py

# End-to-end daemon smoke: generated stream -> journal -> metrics, then
# crash-recover from the journal and verify byte-identical state.
serve-smoke:
	$(PYTHON) -m repro.service --n 200 --rate 0.5 --seed 7 \
		--journal .serve-smoke --metrics-json .serve-smoke-metrics.json \
		--check-recovery
	rm -rf .serve-smoke .serve-smoke-metrics.json

# Fault-injection smoke (<30 s): a seeded fault plan — charger outages,
# cancellations, no-shows, and journal write failures that crash the
# daemon mid-run for the shard supervisor to recover — then verify
# recovery converges on the byte-identical journal (see docs/FAULTS.md).
chaos-smoke:
	$(PYTHON) -m repro.service --n 150 --rate 0.5 --seed 7 --chargers 4 \
		--journal .chaos-smoke --fault-plan seed:13 --check-recovery
	rm -rf .chaos-smoke
	$(PYTHON) -m repro.service --n 150 --rate 0.5 --seed 7 --chargers 8 \
		--shards 4 --halo 12 --journal .chaos-smoke-shards \
		--fault-plan seed:13 --check-recovery
	rm -rf .chaos-smoke-shards
	$(PYTHON) -m repro.service --n 150 --rate 0.5 --seed 7 --chargers 8 \
		--shards 4 --halo 12 --journal .chaos-smoke-supervised \
		--snapshot-every 25 --fault-plan seed:13 --check-recovery
	rm -rf .chaos-smoke-supervised

# Self-healing smoke (tier-1 marker, <5 s): supervised chaos — shard
# kills, snapshot corruption, crash-looping recoveries — converging
# byte-identical with zero operator calls, then an end-to-end supervised
# daemon run recovered via --recover-only (see docs/RECOVERY.md).  A file
# handle a recovery leaks fails the run: its ResourceWarning becomes an
# error raised during collection, reported as an unraisable exception.
recovery-smoke:
	$(PYTHON) -m pytest -q -m recovery_smoke tests/test_shard_supervisor.py \
		-W error::ResourceWarning -W error::pytest.PytestUnraisableExceptionWarning
	$(PYTHON) -m repro.service --n 100 --rate 0.5 --seed 7 --chargers 8 \
		--shards 4 --halo 12 --journal .recovery-smoke \
		--snapshot-every 20 --fault-plan seed:3
	$(PYTHON) -m repro.service --chargers 8 --shards 4 \
		--journal .recovery-smoke --recover-only
	rm -rf .recovery-smoke

# Sharded-service smoke (tier-1 marker): a live 4-shard facade checked
# against the recovery of its own journal directory plus the 1-shard
# byte-identity spot check, then an end-to-end sharded daemon run
# recovered from its journal directory.
shard-smoke:
	$(PYTHON) -m pytest -q -m shard_smoke tests/test_shard_smoke.py
	$(PYTHON) -m repro.service --n 150 --rate 0.5 --seed 7 --chargers 8 \
		--shards 4 --halo 12 --journal .shard-smoke --check-recovery
	rm -rf .shard-smoke

# The deployed-daemon benchmark's own checks, one short run per workload
# (about 25 s in all): every restart reproduces the journaled history
# byte for byte, drain leaves every request terminal, and the final
# journal recovers the final outputs.  Fails unless each run's last line
# reports "correct": true.  Timings are not checked here.
e2e-smoke:
	@for w in steady sharded_churn sparse; do \
		out=$$($(PYTHON) benchmarks/e2e/run.py --workload $$w --seed 1 \
			--seconds 1 --trace 0) || exit 1; \
		echo "$$out" | tail -n 1; \
		echo "$$out" | tail -n 1 | grep -q '"correct": true' || exit 1; \
	done

# The heavy randomized chaos suites (hundreds of hypothesis examples, the
# kernel's and the shard supervisor's); excluded from tier-1 by the
# `chaos` marker.
chaos:
	$(PYTHON) -m pytest -q -m chaos tests/test_faults_chaos.py tests/test_shard_supervisor.py

# Regenerate the pinned CCSGA dynamics goldens (only after an intentional
# behaviour change to the game dynamics).
golden:
	$(PYTHON) tests/fixtures/capture_ccsga_golden.py

# Regenerate the pinned Table 2/3 evaluation goldens (only after an
# intentional behaviour change to the experiments or their seeds).
golden-experiments:
	$(PYTHON) tests/fixtures/capture_experiments_golden.py

# Regenerate the pinned on-disk format fixture tests/fixtures/journal_v1/
# (only after an intentional change to what the service writes; check
# that `git diff --stat` shows only the files the change meant to alter).
fixture-journal-v1:
	$(PYTHON) tests/fixtures/capture_journal_v1.py
