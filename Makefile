# Mirrors .github/workflows/ci.yml so `make ci` locally reproduces the
# gate a PR has to pass.

CARGO ?= cargo

.PHONY: ci build test fmt fmt-fix clippy doc bench-smoke fault-matrix \
	fleet-determinism memo-parity bench-json bench-gate soak lint-study \
	dataloss-study daemon-soak chaos-soak rchbench-test

ci: build test fmt clippy doc rchbench-test fault-matrix fleet-determinism \
	memo-parity bench-smoke lint-study dataloss-study soak daemon-soak \
	chaos-soak

# Seeds for the fault-injection suite: each seed runs every fault site
# under RCHDroid's one handling mode.
FAULT_SEEDS ?= 1 2 3 5 8

# --locked: the committed Cargo.lock must already match the manifests.
build:
	$(CARGO) build --release --locked

test:
	$(CARGO) test -q --workspace --offline

fmt:
	$(CARGO) fmt --all --check

fmt-fix:
	$(CARGO) fmt --all

clippy:
	$(CARGO) clippy --workspace --all-targets -- -D warnings

# The workspace's rustdoc lints deny broken, private and redundant
# intra-doc links, so this fails on a public doc that links to nothing.
doc:
	$(CARGO) doc --workspace --no-deps --offline

fault-matrix:
	for seed in $(FAULT_SEEDS); do \
		echo "--- fault matrix, seed $$seed ---"; \
		FAULT_SEED=$$seed $(CARGO) test -q --test fault_matrix || exit 1; \
	done

# rchbench/ is a package of its own, outside the workspace: build it and
# run its smoke test, which re-runs every workload's output checks.
rchbench-test:
	$(CARGO) test --release --offline --manifest-path rchbench/Cargo.toml

# One iteration of every bench (fleet_parallel also asserts that every
# worker count reduces to the same digest).
bench-smoke:
	$(CARGO) bench -p rch-bench --offline -- --test

# The fleet determinism gate: a parallel run's per-device digests must
# be bit-identical to the DROIDSIM_JOBS=1 inline run (3 seeds, 5% fault
# rate). Runs the suite twice so worker counts above and below the
# machine's core count are both exercised. Then the three study
# binaries (table5, fig10, ablation) must print the same digest at
# --jobs 1 and --jobs 4, equal to the committed one in
# tests/golden/digests.env (scripts/check_digest.sh runs both). Then the
# resume check: a table5 study journaled into a fresh file, cut 51 lines
# plus 45 bytes in (inside line 52's digest, as a crash would), must
# print the full run's digest line on each of two resumes, and that
# digest must be the committed one.
fleet-determinism:
	$(CARGO) test -q --test fleet_determinism
	DROIDSIM_JOBS=2 $(CARGO) test -q --test fleet_determinism
	for study in table5:TABLE5 fig10:FIG10 ablation:ABLATION; do \
		bash scripts/check_digest.sh $${study##*:} -- $(CARGO) run -q --release \
			-p rch-experiments --bin $${study%%:*} -- || exit 1; \
	done
	set -e; \
	rm -f target/t5.journal; \
	full=$$($(CARGO) run -q --release -p rch-experiments --bin table5 -- \
		--jobs 2 --journal target/t5.journal | tail -1); \
	cut=$$(( $$(head -n 51 target/t5.journal | wc -c) + 45 )); \
	head -c "$$cut" target/t5.journal > target/t5.cut; \
	mv target/t5.cut target/t5.journal; \
	first=$$($(CARGO) run -q --release -p rch-experiments --bin table5 -- \
		--jobs 2 --resume target/t5.journal | tail -1); \
	second=$$($(CARGO) run -q --release -p rch-experiments --bin table5 -- \
		--jobs 2 --resume target/t5.journal | tail -1); \
	echo "full:   $$full"; echo "first:  $$first"; echo "second: $$second"; \
	test "$$full" = "$$first"; test "$$full" = "$$second"; \
	bash scripts/check_digest.sh TABLE5 "$$full"

# The inflation-cache parity gate (DESIGN.md §13): fleet digests with
# the per-process caches on must be bit-identical to a cold run at
# every worker count under a 5% fault rate, random app specs must
# digest identically cache-on and cache-off, and a long-lived device
# whose relaunches and re-inits hit its cache must digest as it does
# cold. The second line
# re-runs the fleet determinism suite with the caches disabled so the
# kill switch itself stays a first-class, tested configuration.
memo-parity:
	$(CARGO) test -q --release --test memo_parity
	DROIDSIM_NO_MEMO=1 $(CARGO) test -q --test fleet_determinism

# Crash-safety soak: a 40-task supervised fleet with a 5% injected
# fleet-task fault rate (panics and a forced stall) plus two hard-broken
# tasks. Must exit 0 with exactly those two tasks quarantined; the
# journal and crash dumps land under target/soak/ for CI to archive.
soak:
	$(CARGO) run -q --release -p rch-experiments --bin soak

# Daemon soak (DESIGN.md §12): droidsim-load drives droidsimd at 2x its
# queue capacity with 5% injected worker panics; the script SIGKILLs
# the daemon mid-backlog and restarts it on the same journal. Gate:
# zero lost acknowledged jobs, every digest equal to the jobs=1
# reference, explicit rejections only. Journal lands in
# target/daemon-soak/ for CI to archive.
daemon-soak:
	$(CARGO) build --release -q -p rch-experiments --bins
	bash scripts/daemon_soak.sh

# Chaos soak (DESIGN.md §14): the daemon edge under injected I/O
# faults. Phase 1 forces an ENOSPC window (--enospc-window) and
# requires the full degraded -> recovered round trip on disk; phase 2
# floods a daemon running 5% journal/socket faults at 2x capacity with
# 20% deliberately lost acks and a SIGKILL/restart mid-backlog. Gate:
# zero lost acknowledged jobs, zero duplicated executions, explicit
# rejections only. Journals land in target/chaos-soak/ for CI.
chaos-soak:
	$(CARGO) build --release -q -p rch-experiments --bins
	bash scripts/chaos_soak.sh

# The static-analysis study (DESIGN.md §10): every known-issue-free
# corpus app must lint clean even under --deny-warnings, and the
# static verdicts must agree with the dynamic detection oracle
# field-by-field for all 647 apps (tp27, top100, and the generated
# data-loss corpus) under all three runtimes, with the differential
# digest identical at --jobs 1 and --jobs 4 and equal to the committed
# one in tests/golden/digests.env.
lint-study:
	$(CARGO) run -q --release -p rch-experiments --bin rchlint -- \
		--corpus all --clean-only --deny-warnings
	bash scripts/check_digest.sh RCHLINT_ALL -- $(CARGO) run -q --release \
		-p rch-experiments --bin rchlint -- --differential --corpus all

# The data-loss differential study (DESIGN.md §15): replay the whole
# generated 520-app corpus through the three-runtime dynamic oracle
# (stock / RCHDroid / RuntimeDroid class schedules), require zero
# static/dynamic disagreements with the --jobs 1 and --jobs 4 digests
# identical and equal to the committed one in tests/golden/digests.env,
# write the per-class loss-rate table from the verified verdicts to
# target/table_dataloss.csv (both runs write the same table), and
# require it to match the committed results/table_dataloss.csv byte for
# byte (a deliberate change copies the fresh table over the committed
# one).
dataloss-study:
	mkdir -p target
	bash scripts/check_digest.sh RCHLINT_DATALOSS -- $(CARGO) run -q --release \
		-p rch-experiments --bin rchlint -- --differential --corpus dataloss \
		--table target/table_dataloss.csv
	diff -u results/table_dataloss.csv target/table_dataloss.csv

# Real (non-smoke) runs of the fleet and migration benches, with the
# vendored criterion harness writing its estimates as compact JSON
# artifacts under results/.
bench-json:
	mkdir -p results
	CRITERION_JSON=$(CURDIR)/results/BENCH_fleet.json \
		$(CARGO) bench -p rch-bench --bench fleet_parallel
	CRITERION_JSON=$(CURDIR)/results/BENCH_migration.json \
		$(CARGO) bench -p rch-bench --bench migration_batching

# The bench-regression gate: re-measures both benches into
# target/bench-gate/ and compares the fresh means against the committed
# reference under results/ (±15% band, plus the hard jobs=8 ≤ 0.5×
# jobs=1 scaling assertion). A fresh file measured on a core count other
# than its baseline's has its violations downgraded to warnings; the
# other files still fail the gate.
bench-gate:
	mkdir -p target/bench-gate
	CRITERION_JSON=$(CURDIR)/target/bench-gate/BENCH_fleet.json \
		$(CARGO) bench -p rch-bench --bench fleet_parallel
	CRITERION_JSON=$(CURDIR)/target/bench-gate/BENCH_migration.json \
		$(CARGO) bench -p rch-bench --bench migration_batching
	$(CARGO) run -q --release -p rch-experiments --bin bench_gate -- \
		target/bench-gate/BENCH_fleet.json results/BENCH_fleet.json \
		target/bench-gate/BENCH_migration.json results/BENCH_migration.json
