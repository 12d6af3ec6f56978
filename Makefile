GO ?= go

# Coverage floor for the packages `make cover` measures. Measured 76.9% over
# harness + lebench when introduced, 83.1% once memsim, kernel, cpu and
# staticflow joined, before loadgen joined too; the gate trips if a change
# drops combined coverage below this.
COVER_MIN ?= 70

.PHONY: build test vet fmt race fuzzseed lint cover check bench benchsmoke benchdiff benchdiffsmoke relsecsmoke lockstepsmoke taillatsmoke staticsmoke simbenchsmoke clean

# Packages carrying the host-perf microbenchmarks (cache access, vmm
# translate, cpu issue loop, kernel syscall round-trip, app drive path,
# open-loop replay + digest).
BENCH_PKGS = ./internal/cache/ ./internal/vmm/ ./internal/cpu/ ./internal/kernel/ ./internal/apps/ ./internal/loadgen/ ./internal/staticflow/

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# fmt fails when gofmt would reformat any tracked .go file.
fmt:
	@files=$$(git ls-files '*.go') && out=$$(gofmt -l $$files) && \
		if [ -n "$$out" ]; then echo "gofmt -l (run gofmt -w on these):"; echo "$$out"; exit 1; fi

race:
	$(GO) test -race ./...

# fuzzseed replays the checked-in fuzz seed corpus as regular tests
# (no -fuzz: that would explore; CI only replays known inputs).
fuzzseed:
	$(GO) test -run=Fuzz ./internal/kernel/ ./internal/cpu/ ./internal/loadgen/

# lint runs the project's own go/analysis suite (determinism, errwrap,
# confine — see DESIGN.md §8). Exit 1 means an unannotated finding;
# suppress intentional ones with `//lint:allow <analyzer> -- <reason>`.
lint:
	$(GO) run ./cmd/perspective-lint ./...

# cover enforces COVER_MIN over the harness and lebench packages plus the
# physical store, kernel, core, static verifier and open-loop replay engine.
cover:
	$(GO) test -count=1 -coverprofile=cover.out ./internal/harness/ ./internal/lebench/ \
		./internal/memsim/ ./internal/kernel/ ./internal/cpu/ ./internal/staticflow/ \
		./internal/loadgen/
	@$(GO) tool cover -func=cover.out | awk -v min=$(COVER_MIN) \
		'/^total:/ { sub(/%/, "", $$3); printf "coverage: %s%% (floor %s%%)\n", $$3, min; \
		if ($$3+0 < min+0) { print "FAIL: coverage below floor"; exit 1 } }'

# check is the CI gate: vet + gofmt + the project lint suite + race-enabled tests
# + fuzz seed corpus + a one-iteration benchmark smoke run (guards the
# bench layer against bit-rot without paying for real measurement) + a
# deterministic benchmark-coverage diff against the committed perf
# trajectory + end-to-end relative-security, tail-latency, and static-
# verifier smokes + the benchmark module's own tests.
check: vet fmt lint race fuzzseed lockstepsmoke benchsmoke benchdiffsmoke relsecsmoke taillatsmoke staticsmoke simbenchsmoke

# lockstepsmoke runs the bounded block-dispatch-vs-single-op differential
# oracle at machine level: one scheme, a LEBench slice, one census gadget,
# comparing per-committed-instruction state digests (DESIGN.md §10).
lockstepsmoke:
	$(GO) test -count=1 -run='^TestLockstepSmoke$$' ./internal/harness/

# relsecsmoke runs the relative-security experiment end-to-end through the
# CLI and asserts its two load-bearing verdicts: every sound scheme is
# trace-equivalent over the census, and the repair loop converges.
relsecsmoke:
	$(GO) run ./cmd/perspective-sim -exp relsec > /tmp/relsec.out
	@grep -q 'converged: census clean' /tmp/relsec.out
	@grep -c 'relatively secure' /tmp/relsec.out | grep -qx 4
	@grep -q 'leaks' /tmp/relsec.out
	@rm -f /tmp/relsec.out
	@echo relsecsmoke: ok

# taillatsmoke runs the open-loop fleet experiment end-to-end through the
# CLI at a reduced request budget and asserts the paired-baseline invariant:
# every UNSAFE row reports overhead exactly 1.00, and no cell fails.
taillatsmoke:
	$(GO) run ./cmd/perspective-sim -exp taillats -requests 50000 > /tmp/taillats.out
	@grep -c '^[a-z].*UNSAFE .*1\.00    1\.00    1\.00$$' /tmp/taillats.out | grep -qx 4
	@! grep -q '!!' /tmp/taillats.out
	@rm -f /tmp/taillats.out
	@echo taillatsmoke: ok

# staticsmoke runs the static speculative-leak verifier end-to-end through
# the CLI and asserts its three load-bearing verdicts: the census soundness
# invariant holds, the relsec witness is statically flagged, and the
# synthesized fence set passes the differential oracle trace-equal.
staticsmoke:
	$(GO) run ./cmd/perspective-sim -exp staticflow > /tmp/staticflow.out
	@grep -q 'soundness HOLDS' /tmp/staticflow.out
	@grep -q 'statically flagged: YES' /tmp/staticflow.out
	@grep -q 'trace-equal under the static fences' /tmp/staticflow.out
	@rm -f /tmp/staticflow.out
	@echo staticsmoke: ok

# simbenchsmoke runs the tests of simbench/, a nested module the root
# `go test ./...` never builds: they compile it against the core's counters
# and check its committed small-size digests.
simbenchsmoke:
	cd simbench && $(GO) test -count=1 .

# bench produces BENCH_hostperf.json: micro ns/op per hot function plus the
# record of one traced simbench run of keepalive and of eval-quick at seed 1
# (end-to-end ops/s, set-up and peak RSS; per-scheme sim-MIPS and consult
# cost, per-experiment wall time, flat profile per package; the profile
# itself stays in .bench_build/runs/).
bench:
	$(GO) run ./cmd/benchreport -out BENCH_hostperf.json

benchsmoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x $(BENCH_PKGS)

# benchdiff re-measures the micro benchmarks and fails on a >25% ns/op
# regression against the committed BENCH_hostperf.json. Full measurement
# (a few minutes); run before merging perf-sensitive changes. It gates micro
# ns/op only: `bash simbench/run.sh compare A B` compares end to end.
benchdiff:
	$(GO) run ./cmd/benchreport -diff BENCH_hostperf.json

# benchdiffsmoke is the `make check` form: a fast run that only verifies
# that the fresh benchmark names match the ledger's both ways (none missing,
# none ungated) and that the committed ledger holds a correct simbench
# result for each recorded workload (timing at -benchtime=10x is too noisy
# to gate on, so it doesn't).
benchdiffsmoke:
	$(GO) run ./cmd/benchreport -diff BENCH_hostperf.json -benchtime 10x -diff-names-only

clean:
	rm -f perspective-sim.state.json cover.out
	$(GO) clean ./...
