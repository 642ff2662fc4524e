# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test race race-short perfbench-check bench shard-smoke serve-smoke fuzz vet lint lint-corpus fmt fmt-check verify experiments clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The tier-1 gate plus static analysis: what CI runs on every change.
# Order is cheapest-first: formatting, vet, the repo's own analyzers
# (cmd/climatelint), the full test suite, then named re-runs that must
# stay visible in the verify log even when the suite is green — the
# tsblob golden-stream bit-identity pin, the record v1→v2 migration
# smoke, the pin of the streaming verification kernels against their
# whole-field reference loops, and the steady-state allocation budgets
# of the hot paths (codec Into, fused decode→compare, warm verdict,
# record decode, L96 step, ensemble build) — then the benchmark
# module's own build and tests, the race detector over the concurrent
# packages, and the two cross-process byte-identity smokes. Timing is
# not gated here: perfbench (perfbench/run.sh) measures the commit under
# test end to end.
verify:
	$(GO) build ./...
	$(GO) build ./cmd/climatelint
	$(MAKE) fmt-check
	$(GO) vet ./...
	$(MAKE) lint
	$(MAKE) lint-corpus
	$(GO) test ./...
	$(GO) test ./internal/compress/tsblob/ -run TestGoldenStream
	$(GO) test ./internal/experiments/ -run TestRecordV1MigrationSmoke
	$(GO) test ./internal/metrics/ -run TestFusedEquivalence
	$(GO) test ./internal/... -run SteadyStateAllocs -count=1
	$(MAKE) perfbench-check
	$(MAKE) race-short
	$(MAKE) shard-smoke
	$(MAKE) serve-smoke

# Repo-specific static analysis: ten stdlib-only analyzers — syntactic
# determinism/resource checks plus the CFG/dataflow-based concurrency
# and contract analyzers — enforcing the pipeline's invariants (see
# internal/lint and the README "Static analysis" section).
lint:
	$(GO) run ./cmd/climatelint ./...

# Analyzer corpus gate: every analyzer's // want corpus must pass in
# both directions (each expected finding reported, nothing extra), the
# pre-1.22 loop-variable corpus must fire only under the old semantics,
# and every corpus must make the full analyzer set fail.
lint-corpus:
	$(GO) test ./internal/lint -count=1 -run 'TestAnalyzerCorpus|TestGoCaptureOldLoopVars|TestCorpusMakesClimatelintFail'

# gofmt as a gate, not a fixer: nonzero exit when any file needs
# formatting. The lint testdata corpora are excluded — one of them is a
# deliberately unparseable fixture for the loader's failure-path tests.
fmt-check:
	@out="$$(gofmt -l $$(find . -name '*.go' -not -path '*/testdata/*'))"; \
	if [ -n "$$out" ]; then \
		echo "gofmt -l reports unformatted files:"; echo "$$out"; exit 1; \
	fi

race:
	$(GO) test -race ./...

# Focused race pass over the packages that actually share memory across
# goroutines (worker pool, streaming ensemble, runner, daemon, shard
# leases, artifact store). Cheap enough to gate every change via
# `make verify`; `make race` still covers the whole tree on demand.
race-short:
	$(GO) test -race ./internal/par ./internal/ensemble ./internal/experiments ./internal/serve ./internal/shard ./internal/artifact

# The benchmark (perfbench/) is its own Go module, so `go build ./...` and
# `go test ./...` at the root never compile it. Vet and test it on its own,
# so a removed or renamed export it calls fails here rather than in
# perfbench/run.sh.
perfbench-check:
	cd perfbench && GOWORK=off $(GO) vet . && GOWORK=off $(GO) test .

bench:
	$(GO) test -bench=. -benchmem ./...

# Cross-process correctness smoke: a 2-shard supervised run (two real
# climatebench children coordinating through one artifact cache) must
# render byte-identical stdout to a plain single-process uncached run.
shard-smoke:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) build -o $$tmp/climatebench ./cmd/climatebench && \
	common="-grid test -members 9 -vars U,FSDSC,Z3,CCN3,SST -q" && \
	$$tmp/climatebench $$common -nocache table3 table6 > $$tmp/serial.txt 2>/dev/null && \
	$$tmp/climatebench $$common -cachedir $$tmp/cache -supervise 2 table3 table6 > $$tmp/sharded.txt 2>/dev/null && \
	if cmp -s $$tmp/serial.txt $$tmp/sharded.txt; then \
		echo "shard-smoke: 2-shard supervised output byte-identical to serial"; \
	else \
		echo "shard-smoke: output differs:"; diff $$tmp/serial.txt $$tmp/sharded.txt; exit 1; \
	fi

# Serving correctness smoke: start climatebenchd on an ephemeral port, ask
# it for one verdict through its built-in client, and require the response
# body to be byte-identical to `climatebench -verdict` on the same
# substrate flags; then a SIGINT must drain cleanly (exit 0). No curl — the
# daemon binary is its own client.
serve-smoke:
	@tmp=$$(mktemp -d); dpid=; \
	trap '[ -n "$$dpid" ] && kill $$dpid 2>/dev/null; rm -rf "$$tmp"' EXIT; \
	$(GO) build -o $$tmp/climatebench ./cmd/climatebench || exit 1; \
	$(GO) build -o $$tmp/climatebenchd ./cmd/climatebenchd || exit 1; \
	$$tmp/climatebenchd -grid test -members 9 -vars U,SST -q \
		-cachedir $$tmp/cache -addr 127.0.0.1:0 -addrfile $$tmp/addr 2>$$tmp/daemon.log & \
	dpid=$$!; \
	i=0; while [ ! -s $$tmp/addr ] && [ $$i -lt 300 ]; do sleep 0.2; i=$$((i+1)); done; \
	[ -s $$tmp/addr ] || { echo "serve-smoke: daemon never bound"; cat $$tmp/daemon.log; exit 1; }; \
	addr=$$(head -n 1 $$tmp/addr); \
	$$tmp/climatebenchd -call http://$$addr -var U -variant fpzip-24 > $$tmp/daemon.json || \
		{ echo "serve-smoke: daemon query failed"; cat $$tmp/daemon.log; exit 1; }; \
	$$tmp/climatebench -grid test -members 9 -vars U,SST -cachedir $$tmp/cache \
		-verdict U/fpzip-24 > $$tmp/batch.json || exit 1; \
	cmp -s $$tmp/daemon.json $$tmp/batch.json || \
		{ echo "serve-smoke: daemon and batch verdicts differ:"; \
		  diff $$tmp/daemon.json $$tmp/batch.json; exit 1; }; \
	kill -INT $$dpid; \
	wait $$dpid || { echo "serve-smoke: daemon exited nonzero on SIGINT"; cat $$tmp/daemon.log; exit 1; }; \
	dpid=; \
	echo "serve-smoke: daemon verdict byte-identical to batch; clean shutdown"

# Short fuzzing pass over the decoder, container, artifact-cache, and
# lint-directive parsers.
fuzz:
	$(GO) test -fuzz=FuzzDecoders -fuzztime=30s ./internal/compress
	$(GO) test -fuzz=FuzzTsblobDecode -fuzztime=30s ./internal/compress/tsblob
	$(GO) test -fuzz=FuzzRead -fuzztime=30s ./internal/cdf
	$(GO) test -fuzz=FuzzStoreGet -fuzztime=30s ./internal/artifact
	$(GO) test -fuzz=FuzzDec -fuzztime=30s ./internal/artifact
	$(GO) test -fuzz=FuzzDirectives -fuzztime=30s ./internal/lint

vet:
	$(GO) vet ./...

fmt:
	gofmt -l -w $$(find . -name '*.go' -not -path '*/testdata/*')

# Regenerate every table and figure of the paper (laptop-scale defaults).
experiments:
	$(GO) run ./cmd/climatebench -members 101 table1 table2 table3 table4 table5 ssim fig1 | tee results_bench.txt
	$(GO) run ./cmd/climatebench -members 101 table6 table7 table8 fig2 fig3 fig4 thresholds | tee results_small.txt
	$(GO) run ./cmd/climatebench -members 101 gradient restart analysis portverify characterize | tee results_extensions.txt

clean:
	rm -f results_*.txt test_output.txt bench_output.txt
