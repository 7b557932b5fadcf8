GO ?= go

.PHONY: all build vet fmt test race loc bench bench-verify bench-reconfigure bench-flood clean

all: build vet fmt test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# loc prints the size of the root module: its non-test Go lines and its
# exported functions and methods (the lhgbench module is excluded).
LOC_FILES = find . -name '*.go' ! -name '*_test.go' -not -path './lhgbench/*' -not -path './.*'

loc:
	@echo "non-test Go lines: $$($(LOC_FILES) -exec cat {} + | wc -l)"
	@echo "exported funcs and methods: $$($(LOC_FILES) -exec cat {} + | grep -cE '^func (\([^)]*\) )?[A-Z]')"

# bench2json turns `go test -bench` output into the BENCH_*.json shape:
# run metadata plus ns/op and allocs/op per benchmark, so successive PRs
# can diff throughput across machines and toolchains.
define bench2json
	awk \
		-v commit="$$(git rev-parse --short HEAD 2>/dev/null || echo unknown)" \
		-v gover="$$($(GO) env GOVERSION)" \
		-v maxprocs="$$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 0)" \
		-v stamp="$$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
		'BEGIN { \
			printf "{\n  \"meta\": {\"commit\": \"%s\", \"go\": \"%s\", \"gomaxprocs\": %s, \"timestamp\": \"%s\"},\n", commit, gover, maxprocs, stamp; \
			printf "  \"benchmarks\": [" \
		} \
		/^Benchmark/ { \
			name=$$1; sub(/-[0-9]+$$/, "", name); ns=""; allocs=""; frames=""; kappa=""; lambda=""; \
			for (i=2; i<=NF; i++) { \
				if ($$i == "ns/op") ns=$$(i-1); \
				if ($$i == "allocs/op") allocs=$$(i-1); \
				if ($$i == "frames/op") frames=$$(i-1); \
				if ($$i == "kappa_ms/op") kappa=$$(i-1); \
				if ($$i == "lambda_ms/op") lambda=$$(i-1); \
			} \
			if (ns != "") { \
				printf "%s\n    {\"name\": \"%s\", \"ns_per_op\": %s, \"allocs_per_op\": %s, \"frames_per_op\": %s, \"kappa_ms_per_op\": %s, \"lambda_ms_per_op\": %s}", sep, name, ns, (allocs == "" ? "null" : allocs), (frames == "" ? "null" : frames), (kappa == "" ? "null" : kappa), (lambda == "" ? "null" : lambda); \
				sep=","; \
			} \
		} \
		END { printf "\n  ]\n}\n" }'
endef

# bench runs the perf-trajectory series (exact verification, serial and with
# two workers, and flooding at n in {256, 1024, 4096}, exact verification
# of the dense core-periphery graph, the scale screen of a k-regular K-TREE at the grid point nearest
# n = 10^6 with its kappa/lambda phase split, the P4 all-sources distance
# sweep on K-TREE(4096,3) and K-DIAMOND(4096,4) serial and with two
# workers, the steady-state 0-alloc probes (BFS, the degree-shortcut edge
# probe and the two-flow edge probe), and the metrics-enabled twins of the
# BFS and the two-flow probe) into BENCH_verify.json, then the churn-oscillation
# delta-vs-full re-verification pair into BENCH_reconfigure.json, which
# tracks the incremental re-verification speedup under ~1% membership
# churn, and finally the E29 guarded-vs-unguarded lossy-broadcast pair into
# BENCH_flood.json, which tracks the message cost of storm control
# (frames_per_op against the static ceiling), with the clean reliable
# broadcast on K-DIAMOND(64,4) beside it (the per-broadcast time and
# allocations of the frame codec, acks and dedup). Each ledger also has its
# own target (bench-verify, bench-reconfigure, bench-flood).
bench: bench-verify bench-reconfigure bench-flood

# The campaign rows run once each; the probe rows and their metrics-on
# twins run in a second call at a fixed 10000 iterations, since one
# iteration of a nanosecond probe measures the timer, not the probe.
bench-verify:
	$(GO) test -run '^$$' \
		-bench '^(BenchmarkVerifySweep|BenchmarkVerifyDense|BenchmarkVerifyMillionScreen|BenchmarkDistanceStats|BenchmarkFlood)$$' \
		-benchmem -benchtime=1x . | tee bench.out
	$(GO) test -run '^$$' \
		-bench '^(BenchmarkBFSSteadyState|BenchmarkEdgeProbeSteadyState|BenchmarkEdgeProbeFlow|BenchmarkBFSSteadyStateMetricsOn|BenchmarkEdgeProbeFlowMetricsOn)$$' \
		-benchmem -benchtime=10000x . | tee -a bench.out
	@$(bench2json) bench.out > BENCH_verify.json
	@rm -f bench.out
	@echo "wrote BENCH_verify.json"

bench-reconfigure:
	$(GO) test -run '^$$' -bench '^BenchmarkReconfigureVerify(Delta|Full)$$' \
		-benchmem -benchtime=2x . | tee bench_reconfigure.out
	@$(bench2json) bench_reconfigure.out > BENCH_reconfigure.json
	@rm -f bench_reconfigure.out
	@echo "wrote BENCH_reconfigure.json"

bench-flood:
	$(GO) test -run '^$$' -bench '^BenchmarkFloodCost(Guarded|Unguarded)$$' \
		-benchmem -benchtime=3x . | tee bench_flood.out
	$(GO) test -run '^$$' -bench '^BenchmarkNetfloodBroadcast$$' \
		-benchmem -benchtime=1000x . | tee -a bench_flood.out
	@$(bench2json) bench_flood.out > BENCH_flood.json
	@rm -f bench_flood.out
	@echo "wrote BENCH_flood.json"

clean:
	rm -f bench.out bench_reconfigure.out bench_flood.out \
		BENCH_verify.json BENCH_reconfigure.json BENCH_flood.json
