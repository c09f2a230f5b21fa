GO ?= go

.PHONY: check fmt vet build test race cover fuzz-short check-procs check-bench bench bench-lp bench-core bench-sim bench-eco loc

# The full pre-commit gate: formatting, vet, build, the whole test
# suite, the race detector over every package, coverage floors, a short
# fuzzing pass, the proc-count identity check (which also holds Table 1
# and Figs. 1-3 and 6-8 to the committed results/), and the
# simulation and incremental-ECO benchmarks (check-bench: throughput,
# allocs/op and cold-vs-incremental speedup, printed but not written to
# BENCH_sim.json and BENCH_eco.json). It ends by printing the loc size
# metric, which every change reports.
check: fmt vet build test race cover fuzz-short check-procs check-bench loc

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# The end-to-end benchmark in bench/ is a module of its own; it imports
# internal/lp and internal/core, so vet and test cover it too.
vet:
	$(GO) vet ./...
	$(GO) -C bench vet ./...

build:
	$(GO) build ./...

# The whole suite, including the replay of every stored regression seed
# (TestRegressions, which re-injects the mutation each sensitivity seed
# was recorded from) and the daemon's end-to-end checks in
# internal/service: progress streaming, cache hits that spend no solver
# pivots, /metrics, and a result byte-identical to the one-shot flow
# (TestResultMatchesOneShot).
test:
	$(GO) test ./...
	$(GO) -C bench test ./...

# Race-instrumented run of the whole module. The explicit -timeout
# covers the full-flow suite tests in internal/expt, which can exceed go
# test's 10m default under race on a 1-CPU box.
race:
	$(GO) test -race -timeout 30m ./...

# Per-package coverage with floors on the load-bearing packages; a drop
# below any floor fails the build. Floors are a few points under the
# current numbers to absorb noise, not to excuse regressions.
COVER_FLOORS = internal/core:80 internal/lp:88 internal/verify:78 internal/gen:75 internal/sim:87 internal/service:85

cover:
	@fail=0; \
	for spec in $(COVER_FLOORS); do \
		pkg=$${spec%:*}; floor=$${spec#*:}; \
		line=$$($(GO) test -cover ./$$pkg 2>&1 | tail -1); \
		pct=$$(echo "$$line" | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p'); \
		if [ -z "$$pct" ]; then echo "$$pkg: no coverage reported"; echo "$$line"; fail=1; continue; fi; \
		ok=$$(awk "BEGIN{print ($$pct >= $$floor) ? 1 : 0}"); \
		if [ "$$ok" = 1 ]; then \
			echo "cover $$pkg: $$pct% (floor $$floor%)"; \
		else \
			echo "cover $$pkg: $$pct% BELOW FLOOR $$floor%"; fail=1; \
		fi; \
	done; exit $$fail

# Short continuous-fuzzing pass: each native target gets ~20s of input
# generation (one target per go test invocation, as the fuzzer requires).
# The stored regression seeds are replayed by TestRegressions in test
# and race. A FuzzOptimizeEquivalence failure prints its shrunk
# counterexample as a regression seed to save under
# internal/verify/testdata/regressions. FuzzParseNetlist,
# FuzzParseLibrary and FuzzParseEdits guard the daemon's trust boundary:
# the .bench, cell-library and edit-script parsers never panic, every
# value they accept is in range (phases in [0,1), library values
# finite), and Write∘Parse is idempotent on everything they accept.
# FuzzSubmitJob serves arbitrary bodies through POST /v1/jobs: never a
# panic or a 500, and every 2xx body decodes as a job status. Two differential
# targets run twice, once plain for input-generation throughput and once
# race-instrumented: the LP target (the sparse LU kernel, cold and
# warm-started, vs a cold solve on the test-only dense oracle) races the
# kernel scratch buffers, and the wave target (word-parallel WaveSim vs
# the scalar event engine on optimizer-produced circuits, every lane, no
# calibration escape) races the event arena and the marked-node list.
# FuzzWaveSimAgainstEventSim holds WaveSim to the scalar event
# engine without optimizing: decoded circuits with some flip-flops
# phase-shifted or turned into latches, at periods down to a quarter of
# the minimum and latch Tdq up to 17x the default library's; it runs
# about three times as many inputs per second as the wave target, and
# every decodable one within WaveSim's latch bound reaches the
# comparison.
# FuzzPropagateVsReference holds the wave validator's scheduled
# sweep to the original all-edges sweep on fuzz-built plans: bit for bit
# except sub-1e-9 rounding drift and transparent-latch rings the old
# sweep settles only past its bound (DESIGN.md §5.1). FuzzEventQueue
# holds the simulators' bucketed event queue to the per-event binary
# heap it replaced on random push/drain scripts: same pop sequence,
# including zero-delay pushes and a reset after a horizon cut.
# FuzzRealizeVsColdReference holds realize, whose chain-rounding
# decisions come from warm feasibility probes, to the all-cold rounding
# loop it replaced on decoded circuits: same verdict, same freezes and
# free requests after every round, then same chains and gate drives
# when both succeed and the same error when both fail.
# FuzzReplacementVsColdReference holds buffer replacement, whose repair
# LPs are first asked of the pass's warm repair twin, to the all-cold
# replacement loop it replaced on decoded circuits: the same verdict on
# every try, then the same plan. FuzzBtranMatchesGather holds the LU
# kernel's sparse BTRAN (bitmap-gathered etas, Uᵀ scatter) to the dense
# gather it replaced, bit for bit, on fuzzed bases and eta files.
FUZZTIME ?= 20s

fuzz-short:
	$(GO) test ./internal/verify -run '^$$' -fuzz FuzzOptimizeEquivalence -fuzztime $(FUZZTIME)
	$(GO) test ./internal/verify -run '^$$' -fuzz FuzzLegalize -fuzztime $(FUZZTIME)
	$(GO) test ./internal/verify -run '^$$' -fuzz FuzzDiscretize -fuzztime $(FUZZTIME)
	$(GO) test ./internal/verify -run '^$$' -fuzz FuzzBitSimAgainstEventSim -fuzztime $(FUZZTIME)
	$(GO) test ./internal/verify -run '^$$' -fuzz FuzzWaveBitSimAgainstEventSim -fuzztime $(FUZZTIME)
	$(GO) test -race ./internal/verify -run '^$$' -fuzz FuzzWaveBitSimAgainstEventSim -fuzztime $(FUZZTIME)
	$(GO) test ./internal/verify -run '^$$' -fuzz FuzzWaveSimAgainstEventSim -fuzztime $(FUZZTIME)
	$(GO) test ./internal/verify -run '^$$' -fuzz FuzzIncrementalECO -fuzztime $(FUZZTIME)
	$(GO) test ./internal/lp -run '^$$' -fuzz FuzzLUFactorVsDense -fuzztime $(FUZZTIME)
	$(GO) test -race ./internal/lp -run '^$$' -fuzz FuzzLUFactorVsDense -fuzztime $(FUZZTIME)
	$(GO) test ./internal/lp -run '^$$' -fuzz FuzzBtranMatchesGather -fuzztime $(FUZZTIME)
	$(GO) test ./internal/netlist -run '^$$' -fuzz FuzzParseNetlist -fuzztime $(FUZZTIME)
	$(GO) test ./internal/netlist -run '^$$' -fuzz FuzzParseEdits -fuzztime $(FUZZTIME)
	$(GO) test ./internal/celllib -run '^$$' -fuzz FuzzParseLibrary -fuzztime $(FUZZTIME)
	$(GO) test ./internal/service -run '^$$' -fuzz FuzzSubmitJob -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzPropagateVsReference -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sim -run '^$$' -fuzz FuzzEventQueue -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzRealizeVsColdReference -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzReplacementVsColdReference -fuzztime $(FUZZTIME)

# Proc-count identity and checked results. vexp -exp all (Table 1 on
# all ten circuits, then Figs. 6, 7, 8 and 1 from the same suite run)
# and the vsync report on mem_ctrl must be byte-identical at
# GOMAXPROCS=1 and GOMAXPROCS=2 except for the wall-clock fields (t(s)
# in the table, runtime_s and wall_s in the CSV, the runtime: line of
# the report), which are masked before the diff. The masked GOMAXPROCS=1
# output and CSV must also match the committed results/ (table1, fig6,
# fig7, fig8 and fig1, joined with the blank lines -exp all prints, and
# table1.csv), and vexp -exp fig2 and fig3 must reproduce results/ byte
# for byte. A change that moves QoR therefore regenerates results/
# (make bench) in the same commit. Everything is built and written in a
# temporary directory.
check-procs:
	@dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	mask_txt() { sed -E 's/\| +[0-9.]+( +[^ ]+)$$/| t(s)\1/' "$$1"; }; \
	mask_csv() { awk -F, -v OFS=, '{ $$11 = "-"; $$12 = "-"; print }' "$$1"; }; \
	$(GO) build -o "$$dir/vexp" ./cmd/vexp || exit 1; \
	$(GO) build -o "$$dir/vsync" ./cmd/vsync || exit 1; \
	for p in 1 2; do \
		GOMAXPROCS=$$p "$$dir/vexp" -exp all \
			-csv "$$dir/p$$p.csv" > "$$dir/p$$p.txt" 2>/dev/null || exit 1; \
		mask_txt "$$dir/p$$p.txt" > "$$dir/p$$p.masked"; \
		mask_csv "$$dir/p$$p.csv" >> "$$dir/p$$p.masked"; \
		GOMAXPROCS=$$p "$$dir/vsync" -bench mem_ctrl -verify 0 > "$$dir/v$$p.txt" 2>&1 || exit 1; \
		sed -E 's/^( *runtime:).*/\1 -/' "$$dir/v$$p.txt" >> "$$dir/p$$p.masked"; \
	done; \
	diff "$$dir/p1.masked" "$$dir/p2.masked" || exit 1; \
	for f in table1 fig6 fig7 fig8; do cat results/$$f.txt; echo; done > "$$dir/results.txt"; \
	cat results/fig1.txt >> "$$dir/results.txt"; \
	{ mask_txt "$$dir/results.txt"; mask_csv results/table1.csv; } > "$$dir/results.masked"; \
	{ mask_txt "$$dir/p1.txt"; mask_csv "$$dir/p1.csv"; } | diff "$$dir/results.masked" - || exit 1; \
	for f in fig2 fig3; do \
		"$$dir/vexp" -exp $$f | diff results/$$f.txt - || exit 1; \
	done; \
	echo "check-procs: vexp -exp all and the mem_ctrl report identical at GOMAXPROCS=1 and 2 (wall-clock fields masked); Table 1 and Figs. 1-3 and 6-8 match results/"

# Regenerate every paper table/figure (writes results/).
bench:
	$(GO) test -bench=. -benchmem

# LP-core and suite-runner benchmarks only, with machine-readable
# output in BENCH_lp.json. The mid-size tiers report pivots/op and
# warm-start hit rates; the large tier (BenchmarkLPSolveLarge, a
# ~54k-variable timing LP) reports pivots/op and refactors/op of the
# sparse LU kernel. At the default benchtime the large tier would time a
# single ~1.5 s solve, so it runs in a second invocation at a fixed 5
# iterations, appended to the same file. Benchmark names carry the -N
# GOMAXPROCS suffix.
bench-lp:
	$(GO) test -json -run '^$$' -bench '^Benchmark(LPSolve|LPSolveBoxed|SuiteParallel)$$' -benchmem . > BENCH_lp.json
	$(GO) test -json -run '^$$' -bench '^BenchmarkLPSolveLarge$$' -benchtime 5x -benchmem . >> BENCH_lp.json
	@grep -o '"Output":"Benchmark[^"]*\|"Output":"[^"]*ns/op[^"]*' BENCH_lp.json | sed 's/\"Output\":\"//;s/\\t/\t/g;s/\\n//' || true
	@git diff --quiet -- BENCH_lp.json 2>/dev/null || \
		echo "note: BENCH_lp.json changed — review the numbers and commit the update"

# Wave-validator benchmark only, with machine-readable output in
# BENCH_core.json: one full Plan.Validate (propagation plus constraint
# checks) of the final optimized plans of mem_ctrl, ac97_ctrl and
# systemcdes. Benchmark names carry the -N GOMAXPROCS suffix and the
# cpus metric records the host's CPU count.
bench-core:
	$(GO) test -json -run '^$$' -bench '^BenchmarkPlanValidate$$' -benchmem ./internal/core > BENCH_core.json
	@grep -o '"Output":"Benchmark[^"]*\|"Output":"[^"]*ns/op[^"]*' BENCH_core.json | sed 's/\"Output\":\"//;s/\\t/\t/g;s/\\n//' || true
	@git diff --quiet -- BENCH_core.json 2>/dev/null || \
		echo "note: BENCH_core.json changed — review the numbers and commit the update"

# Simulation-engine benchmarks only, with machine-readable output in
# BENCH_sim.json: event engine vs the zero-delay and continuous-time
# bit-parallel engines on the same s13207 workload (vectors/s and
# lanes/s are the per-stimulus-vector comparison; lane-width records
# the word configuration, 64 = one word, 256 = four), per-side
# original/optimized lanes/s on an optimized s5378 pair, plus one full
# differential check with the fast path at 64 and 256 lanes and forced
# off. allocs/op on the engine benchmarks documents the pooled,
# steady-state Run buffers. Benchmark names carry the -N GOMAXPROCS
# suffix and the cpus metric records the host's CPU count.
BENCH_SIM_OUT = BENCH_sim.json

bench-sim:
	$(GO) test -json -run '^$$' -bench 'EventSim|BitSim|WaveSim|VerifyEquivalence' -benchmem . > $(BENCH_SIM_OUT)
	@grep -o '"Output":"Benchmark[^"]*\|"Output":"[^"]*ns/op[^"]*' $(BENCH_SIM_OUT) | sed 's/\"Output\":\"//;s/\\t/\t/g;s/\\n//' || true
	@git diff --quiet -- BENCH_sim.json 2>/dev/null || \
		echo "note: BENCH_sim.json changed — review the numbers and commit the update"

# Incremental-ECO benchmark: one cold period search on s5378, then
# per-iteration single-gate edits through Session.Reoptimize. The
# speedup-x metric in BENCH_eco.json is the cold search time over the
# mean incremental re-optimization time; the cpus metric records the
# host's CPU count next to the -N GOMAXPROCS suffix.
BENCH_ECO_OUT = BENCH_eco.json

bench-eco:
	$(GO) test -json -run '^$$' -bench '^BenchmarkECO$$' -benchmem . > $(BENCH_ECO_OUT)
	@grep -o '"Output":"Benchmark[^"]*\|"Output":"[^"]*ns/op[^"]*' $(BENCH_ECO_OUT) | sed 's/\"Output\":\"//;s/\\t/\t/g;s/\\n//' || true
	@git diff --quiet -- BENCH_eco.json 2>/dev/null || \
		echo "note: BENCH_eco.json changed — review the numbers and commit the update"

# check's run of bench-sim and bench-eco: the same benchmarks, written
# to a temporary directory, so that check leaves the tracked BENCH files
# as committed. Run bench-sim or bench-eco to re-record them.
check-bench:
	@dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(MAKE) --no-print-directory bench-sim BENCH_SIM_OUT="$$dir/sim.json" && \
	$(MAKE) --no-print-directory bench-eco BENCH_ECO_OUT="$$dir/eco.json"

# Non-test Go lines outside the bench/ module and the vbench build
# directory (which holds cgo-generated files while a build runs): the
# size metric ROADMAP.md tracks. check prints it last.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' | xargs cat | wc -l
