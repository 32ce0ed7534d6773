# Convenience targets; everything is plain `go` underneath.

.PHONY: all build test test-short bench bench-json bench-diff check fuzz vet fmt experiments figures clean

all: build test

build:
	go build ./...

test:
	go test ./...

test-short:
	go test -short ./...

bench:
	go test -bench=. -benchmem .

# Record the simulator and mapper benchmarks (best of $(BENCH_COUNT))
# as BENCH_noc.json and BENCH_mapping.json.
BENCH_COUNT ?= 3
NOC_BENCH = 'NoC|Fig8|Fig9|Worklist|RateDriven|^BenchmarkFig11$$|^BenchmarkValidate$$|^BenchmarkExtLoadSweep$$|^BenchmarkExtTail$$|^BenchmarkExtCongestion$$'
NOC_BENCH_PKGS = . ./internal/noc
MAPPING_BENCH = '^BenchmarkSSSMap$$|^BenchmarkSSSMapPadded$$|^BenchmarkAnnealingMap$$|^BenchmarkMonteCarlo$$|^BenchmarkEvaluateBatch$$|^BenchmarkDynamicStream$$|^BenchmarkNSGAII$$|^BenchmarkClusterSAMap$$|^BenchmarkTable1$$|^BenchmarkWorkloadGen$$|^BenchmarkLowerBound$$|^BenchmarkHungarian64$$|^BenchmarkHungarianSAM$$|^BenchmarkGlobalMap$$|^BenchmarkExtGap$$|^BenchmarkExtCapacity$$|^BenchmarkExtDynstream$$|^BenchmarkExtDynamic$$|^BenchmarkImproveWithBudget$$|^BenchmarkWarmPaperJobs$$'
bench-json:
	go test -run '^$$' -bench $(NOC_BENCH) -benchmem -count=$(BENCH_COUNT) $(NOC_BENCH_PKGS) | go run ./cmd/benchjson -out BENCH_noc.json
	go test -run '^$$' -bench $(MAPPING_BENCH) -benchmem -count=$(BENCH_COUNT) . | go run ./cmd/benchjson -out BENCH_mapping.json

# Diff a fresh benchmark run against the committed BENCH_*.json records,
# printing per-benchmark deltas. Informational only: machine noise moves
# ns/op by a few percent, so the target never fails — read the deltas
# (or the CI artifact) instead of gating on them.
bench-diff:
	go test -run '^$$' -bench $(NOC_BENCH) -benchmem -count=$(BENCH_COUNT) $(NOC_BENCH_PKGS) | go run ./cmd/benchjson -baseline BENCH_noc.json
	go test -run '^$$' -bench $(MAPPING_BENCH) -benchmem -count=$(BENCH_COUNT) . | go run ./cmd/benchjson -baseline BENCH_mapping.json

# Everything CI gates on: vet, staticcheck (when installed), the
# layering guard, build, the full test suite, and the race detector over
# every package of the program (the obs registry, the artifact store,
# the scenario cache, the job service, and both frontends are exercised
# by dedicated hammer/lifecycle tests).
check: vet staticcheck layering build test
	go test -race ./internal/... ./cmd/...

# The assignment kernel has one owner: every SAM solve goes through
# core, so no other package may import hungarian.
.PHONY: layering
layering:
	@bad=$$(go list -f '{{.ImportPath}} {{join .Imports " "}}' ./... | \
		awk '$$1 != "obm/internal/core" { for (i = 2; i <= NF; i++) if ($$i == "obm/internal/hungarian") print $$1 }'); \
	if [ -n "$$bad" ]; then echo "layering: only obm/internal/core may import obm/internal/hungarian, not:" $$bad; exit 1; fi

# Fuzz the parsers that read untrusted input, each for FUZZTIME: the
# -objective spec (CLI flag and HTTP job field), the OBMA artifact
# files read from the cache directory, the -stream spec (CLI flag and
# HTTP job field) and the HTTP job body. One target per invocation, as
# go test -fuzz requires.
FUZZTIME ?= 10s
fuzz:
	go test -run '^$$' -fuzz '^FuzzParseObjective$$' -fuzztime $(FUZZTIME) -parallel 2 ./internal/core
	go test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime $(FUZZTIME) -parallel 2 ./internal/artifact
	go test -run '^$$' -fuzz '^FuzzStreamOverrides$$' -fuzztime $(FUZZTIME) -parallel 2 ./internal/sched
	go test -run '^$$' -fuzz '^FuzzSubmitRequest$$' -fuzztime $(FUZZTIME) -parallel 2 ./internal/service

# staticcheck is optional locally (CI installs it); skip with a note
# rather than failing on machines that don't have it.
.PHONY: staticcheck
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

vet:
	go vet ./...

fmt:
	gofmt -w .

# Regenerate every table and figure of the paper (plus extensions).
experiments:
	go run ./cmd/obmsim -exp all

# Write the figure SVGs into figs/.
figures:
	go run ./cmd/obmsim -exp fig3,fig4,fig8,fig9,fig10,fig12,loadsweep -svgdir figs

clean:
	rm -rf figs results.csv
