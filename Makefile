GO ?= go
SMOKE_EXP ?= fig5
SMOKE_SIZE ?= 32768
BENCHTIME ?= 2x
BENCH_OUT ?= BENCH_PR9
# Gate tolerance must absorb cross-machine skew: BENCH_PR2 and
# BENCH_PR7 were recorded on different boxes and *every* benchmark —
# including pure-CPU microbenches with no engine involvement — shifted
# +20–60% between them. 75% still fails on a real (≥1.75x) regression
# while letting honest trajectory points from slower machines land.
BENCH_GATE ?= BenchmarkFig12Applications:75,BenchmarkFig10aStreamBandwidth:75
COVER_FLOOR ?= 80.0
FUZZTIME ?= 10s
CKPT_FUZZTIME ?= 5s

.PHONY: ci vet build test race smoke smoke-serve smoke-fabric smoke-chaos cover fuzz-smoke fuzz-ckpt calibrate check-twin perf-digest perf-digest-update speedup bench bench-compare profile results check-results clean

# ci is the tier-1 gate: vet, build, the full test suite under the race
# detector (including the serve handler tests), a parallel-vs-sequential
# and dense-vs-skip smoke of the CLIs, a daemon lifecycle smoke
# (start → healthz → submit → SIGTERM drain → resume), a distributed
# sweep-fabric smoke (coordinator + two workers + mid-run SIGKILL), the
# chaos drill (the same fabric under seeded network+disk fault
# injection plus a coordinator SIGKILL/restart), a brief run of the
# checkpoint-decoder fuzzer (crash-safety is a tier-1 property), the
# twin-engine envelope gate (check-twin), and the perfbench
# determinism gate (perf-digest).
ci: vet build race smoke smoke-serve smoke-fabric smoke-chaos fuzz-ckpt check-twin perf-digest

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# smoke checks the two CLI contracts end to end: olsim exits non-zero
# exactly when verification fails (or names an engine that does not
# exist), and olbench's parallel sweep and dense engine render
# byte-identical output to a sequential (-parallel 1) skip-ahead one.
smoke:
	@$(GO) build -o /tmp/ol-smoke-olsim ./cmd/olsim
	@$(GO) build -o /tmp/ol-smoke-olbench ./cmd/olbench
	@/tmp/ol-smoke-olsim -kernel add -primitive orderlight -bytes $(SMOKE_SIZE) >/dev/null
	@if /tmp/ol-smoke-olsim -kernel add -primitive none -bytes $(SMOKE_SIZE) >/dev/null 2>&1; then \
		echo "smoke: FAIL: incorrect run did not exit non-zero"; exit 1; fi
	@/tmp/ol-smoke-olsim -kernel add -engine parallel -bytes $(SMOKE_SIZE) >/dev/null 2>&1; st=$$?; \
	if [ $$st -ne 1 ]; then \
		echo "smoke: FAIL: -engine parallel exited $$st, want 1 (engine removed)"; exit 1; fi
	@tmp=$$(mktemp -d); trap 'rm -rf $$tmp' EXIT; \
	/tmp/ol-smoke-olbench -exp $(SMOKE_EXP) -size $(SMOKE_SIZE) -parallel 1 >$$tmp/seq.md 2>$$tmp/seq.log; \
	/tmp/ol-smoke-olbench -exp $(SMOKE_EXP) -size $(SMOKE_SIZE) >$$tmp/par.md 2>$$tmp/par.log; \
	diff $$tmp/seq.md $$tmp/par.md >/dev/null || { \
		echo "smoke: FAIL: parallel output differs from sequential"; exit 1; }; \
	/tmp/ol-smoke-olbench -exp $(SMOKE_EXP) -size $(SMOKE_SIZE) -dense >$$tmp/dense.md 2>$$tmp/dense.log; \
	diff $$tmp/seq.md $$tmp/dense.md >/dev/null || { \
		echo "smoke: FAIL: dense-engine output differs from skip-ahead"; exit 1; }; \
	cat $$tmp/seq.log $$tmp/par.log; \
	echo "smoke: OK (worker-pool and dense-engine output byte-identical)"
	@$(GO) build -o /tmp/ol-smoke-olfault ./cmd/olfault
	@tmp=$$(mktemp -d); trap 'rm -rf $$tmp' EXIT; \
	/tmp/ol-smoke-olfault -seed 1 -campaign default >$$tmp/a.md || { \
		echo "smoke: FAIL: fault campaign found escapes or missed the pinned case"; exit 1; }; \
	/tmp/ol-smoke-olfault -seed 1 -campaign default >$$tmp/b.md; \
	diff $$tmp/a.md $$tmp/b.md >/dev/null || { \
		echo "smoke: FAIL: fault campaign not byte-identical across runs"; exit 1; }; \
	echo "smoke: OK (fault campaign deterministic, zero escapes)"
	@tmp=$$(mktemp -d); trap 'rm -rf $$tmp' EXIT; \
	/tmp/ol-smoke-olsim -kernel add -primitive orderlight -bytes $(SMOKE_SIZE) >$$tmp/full.txt; \
	/tmp/ol-smoke-olsim -kernel add -primitive orderlight -bytes $(SMOKE_SIZE) \
		-checkpoint-dir $$tmp/ck -stop-after 400 >/dev/null 2>&1; st=$$?; \
	if [ $$st -ne 3 ]; then \
		echo "smoke: FAIL: -stop-after run exited $$st, want 3 (halted)"; exit 1; fi; \
	ls $$tmp/ck/*.ckpt >/dev/null 2>&1 || { \
		echo "smoke: FAIL: halted run left no checkpoint on disk"; exit 1; }; \
	/tmp/ol-smoke-olsim -kernel add -primitive orderlight -bytes $(SMOKE_SIZE) \
		-checkpoint-dir $$tmp/ck -resume >$$tmp/resumed.txt || { \
		echo "smoke: FAIL: resume from checkpoint failed"; exit 1; }; \
	diff $$tmp/full.txt $$tmp/resumed.txt >/dev/null || { \
		echo "smoke: FAIL: resumed run differs from uninterrupted run"; exit 1; }; \
	echo "smoke: OK (checkpoint/kill/resume byte-identical)"

# smoke-serve checks the daemon contract end to end: a real olserve
# process serves a figure byte-identically to a local run, SIGTERM
# mid-sweep drains gracefully (exit 0, progress journaled under
# -checkpoint-root), and a restarted daemon resumes the identically
# resubmitted request — rendering the same bytes as a local run.
smoke-serve:
	@$(GO) build -o /tmp/ol-smoke-olserve ./cmd/olserve
	@$(GO) build -o /tmp/ol-smoke-olbench ./cmd/olbench
	@tmp=$$(mktemp -d); pid=; pid2=; \
	trap 'kill $$pid $$pid2 2>/dev/null; rm -rf $$tmp' EXIT; \
	/tmp/ol-smoke-olserve -addr localhost:0 -addr-file $$tmp/addr \
		-checkpoint-root $$tmp/ck -workers 2 2>$$tmp/serve1.log & pid=$$!; \
	i=0; while [ ! -s $$tmp/addr ] && [ $$i -lt 100 ]; do sleep 0.05; i=$$((i+1)); done; \
	base="http://$$(cat $$tmp/addr)"; \
	/tmp/ol-smoke-olserve -healthcheck $$base >/dev/null || { \
		echo "smoke-serve: FAIL: daemon never became healthy"; cat $$tmp/serve1.log; exit 1; }; \
	/tmp/ol-smoke-olbench -exp $(SMOKE_EXP) -size $(SMOKE_SIZE) >$$tmp/local.md 2>/dev/null; \
	/tmp/ol-smoke-olbench -exp $(SMOKE_EXP) -size $(SMOKE_SIZE) -server $$base >$$tmp/served.md 2>/dev/null || { \
		echo "smoke-serve: FAIL: daemon-submitted $(SMOKE_EXP) failed"; cat $$tmp/serve1.log; exit 1; }; \
	diff $$tmp/local.md $$tmp/served.md >/dev/null || { \
		echo "smoke-serve: FAIL: daemon output differs from local run"; exit 1; }; \
	echo "smoke-serve: OK ($(SMOKE_EXP) over HTTP byte-identical to local run)"; \
	/tmp/ol-smoke-olbench -exp fig12 -size $(SMOKE_SIZE) -server $$base \
		>/dev/null 2>&1 & cpid=$$!; \
	i=0; until ls $$tmp/ck/*/journal.jsonl >/dev/null 2>&1; do \
		if [ $$i -ge 200 ]; then \
			echo "smoke-serve: FAIL: sweep left no journal under -checkpoint-root"; exit 1; fi; \
		sleep 0.05; i=$$((i+1)); done; \
	kill -TERM $$pid; \
	wait $$pid || { echo "smoke-serve: FAIL: drain exited non-zero"; cat $$tmp/serve1.log; exit 1; }; \
	pid=; wait $$cpid 2>/dev/null || true; \
	/tmp/ol-smoke-olserve -addr localhost:0 -addr-file $$tmp/addr2 \
		-checkpoint-root $$tmp/ck -workers 2 2>$$tmp/serve2.log & pid2=$$!; \
	i=0; while [ ! -s $$tmp/addr2 ] && [ $$i -lt 100 ]; do sleep 0.05; i=$$((i+1)); done; \
	base2="http://$$(cat $$tmp/addr2)"; \
	/tmp/ol-smoke-olserve -healthcheck $$base2 >/dev/null || { \
		echo "smoke-serve: FAIL: restarted daemon never became healthy"; cat $$tmp/serve2.log; exit 1; }; \
	/tmp/ol-smoke-olbench -exp fig12 -size $(SMOKE_SIZE) >$$tmp/fig12-local.md 2>/dev/null; \
	/tmp/ol-smoke-olbench -exp fig12 -size $(SMOKE_SIZE) -server $$base2 >$$tmp/fig12-resumed.md 2>/dev/null || { \
		echo "smoke-serve: FAIL: resumed fig12 failed"; cat $$tmp/serve2.log; exit 1; }; \
	diff $$tmp/fig12-local.md $$tmp/fig12-resumed.md >/dev/null || { \
		echo "smoke-serve: FAIL: resumed fig12 differs from local run"; exit 1; }; \
	kill -TERM $$pid2; wait $$pid2 || true; pid2=; \
	echo "smoke-serve: OK (SIGTERM drained mid-sweep; restarted daemon resumed fig12 byte-identically)"

# smoke-fabric checks the distributed sweep fabric end to end: an
# olserve coordinator (-fabric, 1-cell leases, short lease TTL) farms a
# fig12 sweep out to olserve -worker processes; the first worker is
# SIGKILLed mid-run, a second worker joins, and the first restarts on
# its own checkpoint directory (its journal replays finished cells).
# The assembled output must be byte-identical to a local olbench run —
# across a worker crash, a lease expiry and a mixed worker pool.
smoke-fabric:
	@$(GO) build -o /tmp/ol-smoke-olserve ./cmd/olserve
	@$(GO) build -o /tmp/ol-smoke-olbench ./cmd/olbench
	@tmp=$$(mktemp -d); pid=; w1=; w2=; w1b=; \
	trap 'kill -9 $$pid $$w1 $$w2 $$w1b 2>/dev/null; rm -rf $$tmp' EXIT; \
	/tmp/ol-smoke-olserve -addr localhost:0 -addr-file $$tmp/addr \
		-fabric -lease-timeout 2s -chunk 1 -workers 2 2>$$tmp/serve.log & pid=$$!; \
	i=0; while [ ! -s $$tmp/addr ] && [ $$i -lt 100 ]; do sleep 0.05; i=$$((i+1)); done; \
	base="http://$$(cat $$tmp/addr)"; \
	/tmp/ol-smoke-olserve -healthcheck $$base >/dev/null || { \
		echo "smoke-fabric: FAIL: coordinator never became healthy"; cat $$tmp/serve.log; exit 1; }; \
	/tmp/ol-smoke-olbench -exp fig12 -size $(SMOKE_SIZE) -server $$base -fabric \
		>$$tmp/fabric.md 2>$$tmp/olbench.log & cpid=$$!; \
	/tmp/ol-smoke-olserve -worker $$base -worker-name w1 \
		-worker-checkpoint-dir $$tmp/w1 2>$$tmp/w1.log & w1=$$!; \
	i=0; until [ -s $$tmp/w1/journal.jsonl ]; do \
		if [ $$i -ge 400 ]; then \
			echo "smoke-fabric: FAIL: worker 1 journaled no cells"; \
			cat $$tmp/serve.log $$tmp/w1.log; exit 1; fi; \
		sleep 0.05; i=$$((i+1)); done; \
	kill -9 $$w1; wait $$w1 2>/dev/null; w1=; \
	/tmp/ol-smoke-olserve -worker $$base -worker-name w2 \
		-worker-checkpoint-dir $$tmp/w2 2>$$tmp/w2.log & w2=$$!; \
	/tmp/ol-smoke-olserve -worker $$base -worker-name w1b \
		-worker-checkpoint-dir $$tmp/w1 2>$$tmp/w1b.log & w1b=$$!; \
	wait $$cpid || { \
		echo "smoke-fabric: FAIL: fabric sweep failed"; \
		cat $$tmp/serve.log $$tmp/olbench.log; exit 1; }; \
	/tmp/ol-smoke-olbench -exp fig12 -size $(SMOKE_SIZE) >$$tmp/local.md 2>/dev/null; \
	diff $$tmp/local.md $$tmp/fabric.md >/dev/null || { \
		echo "smoke-fabric: FAIL: fabric output differs from local run"; exit 1; }; \
	kill $$w2 $$w1b 2>/dev/null; kill -TERM $$pid; wait $$pid || true; pid=; w2=; w1b=; \
	echo "smoke-fabric: OK (fig12 over 2 workers + mid-run SIGKILL byte-identical to local)"

# smoke-chaos is the fault-injection drill: the smoke-fabric topology
# (coordinator + two workers, 1-cell leases) runs with -chaos armed on
# both workers — seeded network faults on every coordinator call,
# seeded disk faults on every journal write — a journaled coordinator
# is SIGKILLed mid-run and restarted on the same -fabric-journal, and
# the reassembled output must STILL be byte-identical to a local run.
# A second leg pins the determinism claim itself: two identical local
# runs with the same -chaos-seed must emit the identical injected-fault
# trace (and identical results), so any failure this target ever finds
# is replayable from its seed.
smoke-chaos:
	@$(GO) build -o /tmp/ol-smoke-olserve ./cmd/olserve
	@$(GO) build -o /tmp/ol-smoke-olbench ./cmd/olbench
	@tmp=$$(mktemp -d); pid=; pid2=; w1=; w2=; \
	trap 'kill -9 $$pid $$pid2 $$w1 $$w2 2>/dev/null; rm -rf $$tmp' EXIT; \
	/tmp/ol-smoke-olserve -addr localhost:0 -addr-file $$tmp/addr \
		-fabric -fabric-journal $$tmp/board.journal -lease-timeout 2s -chunk 1 \
		-workers 2 2>$$tmp/serve1.log & pid=$$!; \
	i=0; while [ ! -s $$tmp/addr ] && [ $$i -lt 100 ]; do sleep 0.05; i=$$((i+1)); done; \
	base="http://$$(cat $$tmp/addr)"; \
	/tmp/ol-smoke-olserve -healthcheck $$base >/dev/null || { \
		echo "smoke-chaos: FAIL: coordinator never became healthy"; cat $$tmp/serve1.log; exit 1; }; \
	/tmp/ol-smoke-olserve -worker $$base -worker-name cw1 -worker-checkpoint-dir $$tmp/w1 \
		-chaos net=0.15,fs=0.15 -chaos-seed 7 2>$$tmp/w1.log & w1=$$!; \
	/tmp/ol-smoke-olserve -worker $$base -worker-name cw2 -worker-checkpoint-dir $$tmp/w2 \
		-chaos net=0.15,fs=0.15 -chaos-seed 8 2>$$tmp/w2.log & w2=$$!; \
	/tmp/ol-smoke-olbench -exp $(SMOKE_EXP) -size $(SMOKE_SIZE) -server $$base -fabric \
		>$$tmp/chaos.md 2>$$tmp/olbench.log & cpid=$$!; \
	i=0; until grep -q '"cell"' $$tmp/board.journal 2>/dev/null; do \
		if [ $$i -ge 600 ]; then \
			echo "smoke-chaos: FAIL: no cell completed under chaos"; \
			cat $$tmp/serve1.log $$tmp/w1.log $$tmp/w2.log; exit 1; fi; \
		sleep 0.05; i=$$((i+1)); done; \
	kill -9 $$pid; wait $$pid 2>/dev/null; pid=; \
	/tmp/ol-smoke-olserve -addr $${base#http://} \
		-fabric -fabric-journal $$tmp/board.journal -lease-timeout 2s -chunk 1 \
		-workers 2 2>$$tmp/serve2.log & pid2=$$!; \
	/tmp/ol-smoke-olserve -healthcheck $$base >/dev/null || { \
		echo "smoke-chaos: FAIL: restarted coordinator never became healthy"; cat $$tmp/serve2.log; exit 1; }; \
	wait $$cpid || { \
		echo "smoke-chaos: FAIL: fabric sweep failed under chaos"; \
		cat $$tmp/serve1.log $$tmp/serve2.log $$tmp/olbench.log $$tmp/w1.log $$tmp/w2.log; exit 1; }; \
	/tmp/ol-smoke-olbench -exp $(SMOKE_EXP) -size $(SMOKE_SIZE) >$$tmp/local.md 2>/dev/null; \
	diff $$tmp/local.md $$tmp/chaos.md >/dev/null || { \
		echo "smoke-chaos: FAIL: chaos-fabric output differs from local run"; exit 1; }; \
	kill $$w1 $$w2 2>/dev/null; kill -TERM $$pid2; wait $$pid2 2>/dev/null || true; pid2=; w1=; w2=; \
	echo "smoke-chaos: OK ($(SMOKE_EXP) over 2 chaos workers + coordinator SIGKILL/restart byte-identical to local)"
	@tmp=$$(mktemp -d); trap 'rm -rf $$tmp' EXIT; \
	/tmp/ol-smoke-olbench -exp $(SMOKE_EXP) -size $(SMOKE_SIZE) -parallel 1 \
		-cache-dir $$tmp/rc1 -chaos fs=0.4 -chaos-seed 11 >$$tmp/a.md 2>$$tmp/a.log || { \
		echo "smoke-chaos: FAIL: run did not survive disk chaos"; cat $$tmp/a.log; exit 1; }; \
	/tmp/ol-smoke-olbench -exp $(SMOKE_EXP) -size $(SMOKE_SIZE) -parallel 1 \
		-cache-dir $$tmp/rc2 -chaos fs=0.4 -chaos-seed 11 >$$tmp/b.md 2>$$tmp/b.log || { \
		echo "smoke-chaos: FAIL: second chaos run failed"; cat $$tmp/b.log; exit 1; }; \
	grep '^chaos:' $$tmp/a.log >$$tmp/a.trace; grep '^chaos:' $$tmp/b.log >$$tmp/b.trace; \
	[ -s $$tmp/a.trace ] || { \
		echo "smoke-chaos: FAIL: fs=0.4 injected no faults (trace empty)"; exit 1; }; \
	diff $$tmp/a.trace $$tmp/b.trace >/dev/null || { \
		echo "smoke-chaos: FAIL: same seed produced different fault sequences"; \
		diff $$tmp/a.trace $$tmp/b.trace | head; exit 1; }; \
	diff $$tmp/a.md $$tmp/b.md >/dev/null || { \
		echo "smoke-chaos: FAIL: chaos runs not byte-identical"; exit 1; }; \
	echo "smoke-chaos: OK (seed 11 replayed $$(wc -l <$$tmp/a.trace) injected faults identically; output byte-identical)"

# cover enforces a statement-coverage floor over the internal packages.
# The floor sits well under the current ~87% so legitimate refactors
# don't trip it, but a dropped test file does.
cover:
	@$(GO) test -coverprofile=cover.out ./internal/... >/dev/null
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {sub(/%/,"",$$3); print $$3}'); \
	echo "cover: internal/... total $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t=$$total -v f=$(COVER_FLOOR) 'BEGIN { exit !(t+0 >= f+0) }' || { \
		echo "cover: FAIL: $$total% is below the $(COVER_FLOOR)% floor"; exit 1; }

# fuzz-smoke runs each native fuzz target briefly (default 10s each):
# long enough to exercise the generators and corpus mutations, short
# enough for every CI run. Crashers land in testdata/fuzz/ as usual.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzPacketRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/isa
	$(GO) test -run '^$$' -fuzz '^FuzzKernelSpec$$' -fuzztime $(FUZZTIME) ./internal/kernel
	$(GO) test -run '^$$' -fuzz '^FuzzFaultPlan$$' -fuzztime $(FUZZTIME) ./internal/runner
	$(GO) test -run '^$$' -fuzz '^FuzzCheckpointDecode$$' -fuzztime $(FUZZTIME) ./internal/ckpt
	$(GO) test -run '^$$' -fuzz '^FuzzResultCacheDecode$$' -fuzztime $(FUZZTIME) ./internal/rcache
	$(GO) test -run '^$$' -fuzz '^FuzzCalibrationDecode$$' -fuzztime $(FUZZTIME) ./internal/twin
	$(GO) test -run '^$$' -fuzz '^FuzzChaosPlanDecode$$' -fuzztime $(FUZZTIME) ./internal/chaos

# fuzz-ckpt is the short ci-gate slice of the checkpoint fuzzer: a few
# seconds is enough to replay the committed corpus plus a burst of
# mutations on every ci run.
fuzz-ckpt:
	$(GO) test -run '^$$' -fuzz '^FuzzCheckpointDecode$$' -fuzztime $(CKPT_FUZZTIME) ./internal/ckpt

# calibrate regenerates the committed twin calibration artifact from
# pinned seeds: cycle-engine anchor runs over every Table 2 kernel,
# primitive and temporary-storage fraction, a least-squares fit, and a
# cross-check pass that records each family's error envelope. The
# artifact carries no timestamps and sorts its entries canonically, so
# regeneration is byte-identical and CI can diff it like results_all.md.
calibrate:
	$(GO) run ./cmd/olwhatif -calibrate -out calibration.olcal

# check-twin is the twin-engine envelope gate: it requires the
# committed calibration artifact, then replays seeded random cells per
# kernel family — sizes the calibration pass never measured — on both
# the twin and the skip-ahead cycle engine. It fails when any answer
# leaves the artifact's recorded error bound, when the median cycle
# error tops 10%, when the analytical answers are not >=100x faster in
# aggregate, or when an escalated out-of-confidence cell is not
# byte-identical to a direct cycle-engine run.
check-twin:
	@test -f calibration.olcal || { \
		echo "check-twin: FAIL: calibration.olcal missing; run 'make calibrate' and commit it"; exit 1; }
	$(GO) test -run '^TestTwinCheck' -count=1 .

# perf-digest is the deterministic half of the host-cost benchmark. It
# runs each perfbench workload (sim-cold, sim-warm, serve-mix) briefly
# at seed 3 and fails when a run exits non-zero, when any op came back
# incorrect, or when a workload's digest: line (a hash over the
# simulated statistics of its first ops) differs from the committed
# testdata/perfbench.digest. It also fails when a workload's
# allocs_per_op lies more than 10% (BENCHMARK.json's allocs bound) from
# testdata/perfbench.allocs; that baseline names the Go version it was
# recorded with, and under any other version only the digests are
# checked, because the runtime's own allocations differ between
# releases. A host-speed change must leave every digest unchanged; a
# change that moves simulated results or allocations on purpose
# regenerates both files with perf-digest-update, which runs the same
# checked loop and writes its lines instead of comparing them.
# Timings are printed by perfbench and never gated here: shared-machine
# spread is too wide for a fixed bound.
perf-digest perf-digest-update:
	@tmp=$$(mktemp -d); trap 'rm -rf $$tmp' EXIT; \
	echo "go: $$($(GO) env GOVERSION)" >$$tmp/allocs; \
	for w in sim-cold sim-warm serve-mix; do \
		bash perfbench/run.sh --workload $$w --seed 3 --seconds 1 >$$tmp/$$w.out 2>$$tmp/$$w.err || { \
			echo "$@: FAIL: perfbench $$w exited non-zero"; cat $$tmp/$$w.err; exit 1; }; \
		tail -n 1 $$tmp/$$w.out | grep -q '"correct":true' || { \
			echo "$@: FAIL: perfbench $$w reported incorrect ops"; tail -n 1 $$tmp/$$w.out; exit 1; }; \
		grep '^digest:' $$tmp/$$w.out >>$$tmp/digest || { \
			echo "$@: FAIL: perfbench $$w printed no digest: line"; exit 1; }; \
		a=$$(tail -n 1 $$tmp/$$w.out | sed -n 's/.*"allocs_per_op":{[^}]*"value":\([0-9.e+]*\)}.*/\1/p'); \
		[ -n "$$a" ] || { echo "$@: FAIL: perfbench $$w printed no allocs_per_op"; exit 1; }; \
		printf 'allocs: workload=%s allocs_per_op=%.1f\n' $$w $$a >>$$tmp/allocs; \
	done; \
	if [ "$@" = perf-digest-update ]; then \
		mv $$tmp/digest testdata/perfbench.digest; mv $$tmp/allocs testdata/perfbench.allocs; \
		echo "$@: wrote testdata/perfbench.digest and testdata/perfbench.allocs"; exit 0; fi; \
	diff testdata/perfbench.digest $$tmp/digest || { \
		echo "$@: FAIL: simulated statistics moved (run 'make perf-digest-update' only if that is intended)"; exit 1; }; \
	echo "$@: OK (sim-cold, sim-warm and serve-mix digests match testdata/perfbench.digest)"; \
	if [ "$$(head -n 1 testdata/perfbench.allocs)" != "$$(head -n 1 $$tmp/allocs)" ]; then \
		echo "$@: note: testdata/perfbench.allocs was recorded with $$(head -n 1 testdata/perfbench.allocs), this is $$(head -n 1 $$tmp/allocs); allocs_per_op not checked"; exit 0; fi; \
	awk -v tgt=$@ 'NR == FNR { if ($$1 == "allocs:") { split($$3, kv, "="); base[$$2] = kv[2] } next } \
		$$1 == "allocs:" { split($$3, kv, "="); b = base[$$2]; \
			if (b == "") { printf "%s: FAIL: %s has no allocs baseline\n", tgt, $$2; bad = 1; next } \
			d = (kv[2] - b) / b; ok = d <= 0.1 && d >= -0.1; \
			printf "%s: %s allocs_per_op %s (baseline %s, %+.1f%%)%s\n", tgt, $$2, kv[2], b, 100 * d, ok ? "" : " FAIL: outside 10%"; \
			if (!ok) bad = 1 } \
		END { exit bad }' testdata/perfbench.allocs $$tmp/allocs || { \
		echo "$@: FAIL: allocations moved (run 'make perf-digest-update' only if that is intended)"; exit 1; }; \
	echo "$@: OK (allocs_per_op within 10% of testdata/perfbench.allocs)"

# results regenerates results_all.md — every experiment's tables plus a
# collapsed per-cell run-manifest block (config hash, seed, engine,
# footprint). The rendered manifests carry only deterministic fields,
# so the whole artifact is byte-identical across regenerations and
# check-results can diff it against the committed copy.
results:
	$(GO) run ./cmd/olbench -exp all -manifest > results_all.md
	@if [ -f calibration.olcal ]; then \
		$(GO) run ./cmd/olwhatif -report -calibration calibration.olcal >> results_all.md; \
		echo "results: appended twin error-bound table from calibration.olcal"; fi
	@echo "results: wrote results_all.md"

# check-results fails when the committed results_all.md has drifted
# from what `make results` would regenerate — i.e. when a change moved
# the tables but the artifact was not refreshed. Run by CI.
check-results: results
	@git diff --exit-code -- results_all.md || { \
		echo "check-results: FAIL: results_all.md is stale; run 'make results' and commit it"; exit 1; }

# speedup times the full experiment sweep sequentially and in parallel.
# Informational: the ratio tracks the core count (expect ~Nx on N CPUs,
# ~1x on a single-CPU machine).
speedup:
	@$(GO) build -o /tmp/ol-speedup-olbench ./cmd/olbench
	@echo "sequential (-parallel 1):"; \
	time /tmp/ol-speedup-olbench -exp all -parallel 1 >/dev/null
	@echo "parallel (all CPUs):"; \
	time /tmp/ol-speedup-olbench -exp all >/dev/null

# bench records one point on the benchmark trajectory: the root-package
# suite (figure regenerations, machine runs, component microbenchmarks,
# and the Foo/FooDense engine pairs) lands in $(BENCH_OUT).txt (raw,
# benchstat-compatible) and $(BENCH_OUT).json (parsed, with derived
# dense-vs-skip speedups).
bench:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime=$(BENCHTIME) . | tee $(BENCH_OUT).txt
	$(GO) run ./cmd/benchjson -label $(BENCH_OUT) $(BENCH_OUT).txt > $(BENCH_OUT).json
	@echo "bench: wrote $(BENCH_OUT).txt and $(BENCH_OUT).json"

# bench-compare diffs $(BENCH_OUT).json against the newest other
# BENCH_*.json in the repository — the previous point on the trajectory.
# The $(BENCH_GATE) benchmarks are hard floors: a regression beyond the
# per-gate tolerance fails the target. The tolerance is generous (75%)
# because trajectory points are recorded on different machines — see
# the BENCH_GATE comment at the top of this file.
bench-compare:
	@prev=$$(ls -1t BENCH_*.json 2>/dev/null | grep -vx '$(BENCH_OUT).json' | head -1); \
	if [ -z "$$prev" ]; then \
		echo "bench-compare: no prior BENCH_*.json trajectory point"; exit 0; fi; \
	$(GO) run ./cmd/benchjson -compare -gate '$(BENCH_GATE)' $$prev $(BENCH_OUT).json

# profile captures CPU and heap profiles of the heaviest steady
# benchmark (whole-machine fence run); inspect with `go tool pprof`.
profile:
	$(GO) test -run '^$$' -bench 'MachineAddFence$$' -benchtime=$(BENCHTIME) \
		-cpuprofile cpu.pprof -memprofile mem.pprof .
	@echo "profile: wrote cpu.pprof and mem.pprof (go tool pprof cpu.pprof)"

clean:
	rm -f /tmp/ol-smoke-olsim /tmp/ol-smoke-olbench /tmp/ol-smoke-olfault \
		/tmp/ol-smoke-olserve /tmp/ol-speedup-olbench \
		cpu.pprof mem.pprof cover.out orderlight.test
