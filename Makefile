GO ?= go

.PHONY: check fmt-check vet no-atomics no-fma build test race bench bench-json alloc-test trace-demo failover postmortem-demo shard-stress

# check is the tier-1 gate: gofmt, vet, the no-atomics and no-fma lints, build
# everything, the full test suite with the race detector, then the failover
# availability claims. fmt-check, vet and build also cover benchmark/, a module of its own
# that compiles against the internal packages, so an API change cannot break
# it unnoticed.
check: fmt-check vet no-atomics no-fma build race failover

# fmt-check fails, naming the file, if gofmt would change any Go file of the
# root module or of benchmark/.
fmt-check:
	@! gofmt -l *.go cmd examples internal benchmark | grep .

vet:
	$(GO) vet ./...
	cd benchmark && $(GO) vet ./...

# no-atomics fails, naming the file, if non-test code of a simulation layer
# (sim, flow, sci, shmem, smi, mpi, osc, pack, rmem, ring, torus) other than
# internal/sim/sharded.go, or of internal/obs or internal/obs/flight, imports
# sync/atomic; if non-test code of obs or obs/flight holds a sync.Mutex or
# sync.RWMutex; or if non-test code of a simulation layer holds an
# *obs.Counter or *obs.Gauge or looks one up (.Counter( or .Gauge(). Every
# count is a plain stats field under the cooperative-host rule (sim.Host),
# added to the registry once by its owner (obs.Registry.AddStats), and an
# atomic or live registry collector beside it is the duplicate this lint
# keeps from growing back. The same rule keeps the Engine's stop flag and
# process state plain fields: one goroutine at a time touches an Engine, and
# only the sharded engine's window barrier is shared between goroutines. A
# registry, flight recorder or trace belongs to one run at a time, like an
# engine, so obs and obs/flight neither lock nor count atomically; the
# sharded torus gives each shard its own transfer histogram and merges them
# after the run. internal/bench and cmd only read what was published.
SIM_LAYERS := sim flow sci shmem smi mpi osc pack rmem ring torus
OBS_PKGS := obs obs/flight
no-atomics:
	@! grep -l '"sync/atomic"' $(filter-out %_test.go internal/sim/sharded.go,$(wildcard $(SIM_LAYERS:%=internal/%/*.go) $(OBS_PKGS:%=internal/%/*.go)))
	@! grep -lE 'sync\.(RW)?Mutex' $(filter-out %_test.go,$(wildcard $(OBS_PKGS:%=internal/%/*.go)))
	@! grep -lE '\*obs\.(Counter|Gauge)|\.(Counter|Gauge)\(' $(filter-out %_test.go,$(wildcard $(SIM_LAYERS:%=internal/%/*.go)))

# no-fma fails, naming each source line and instruction, if the compiler fuses
# a multiply-add anywhere in the non-test code of internal/. The Go spec lets
# a compiler fuse x*y + z into one instruction with a single rounding, and
# arm64, ppc64le, s390x and riscv64 do, so virtual time would differ by
# architecture; an explicit float64(x*y) forbids the fusion. amd64 never
# fuses, so the lint cross-compiles the assembly listing (-gcflags=-S) for the
# four that do; the toolchain builds their standard library from GOROOT.
FMA_ARCHS := arm64 ppc64le s390x riscv64
no-fma:
	@for a in $(FMA_ARCHS); do \
		asm=$$(GOARCH=$$a $(GO) build -gcflags=-S ./internal/... 2>&1) || { GOARCH=$$a $(GO) build ./internal/...; exit 1; }; \
		fused=$$(printf '%s\n' "$$asm" | grep -E '^[[:space:]]+0x[0-9a-f]+ [0-9]+ \(.*\)[[:space:]]+FN?M(ADD|SUB)[DS]?[[:space:]]' | \
			sed -E 's|^.*\($(CURDIR)/([^)]*)\)[[:space:]]+([A-Z]+).*|\1 \2|' | sort -u); \
		if [ -n "$$fused" ]; then echo "no-fma: $$a fuses multiply-adds at:"; echo "$$fused" | sed 's/^/  /'; fail=1; fi; \
	done; exit $${fail:-0}

build:
	$(GO) build ./...
	cd benchmark && $(GO) build -o /dev/null ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# bench-json is the virtual-time harness: it rewrites the six committed
# artifacts BENCH_paper.json, BENCH_dma.json, BENCH_coll.json,
# BENCH_rmem.json, BENCH_engine.json and BENCH_ablation.json (the paper's
# figures and tables, path-selection and algorithm-selection matrices, rmem
# failover suite, sharded-engine 512-node suite, gated design-choice
# ablations) — the rows of internal/bench.Suites that name a file. Every
# column written is determined by the seed, so after it
# `git diff --exit-code -- 'BENCH_*.json'` is empty and
# `git status --porcelain -- 'BENCH_*.json'` prints nothing unless behaviour
# changed (CI runs both, so a new file fails until it is committed);
# wall-clock columns are printed, not written (benchmark/ measures those).
# Exits non-zero on a failed gate: rmem availability, engine determinism or
# an ablation claim. See docs/PERFORMANCE.md.
bench-json:
	$(GO) run ./cmd/benchjson -dir .

# failover runs the replicated remote-memory availability claims: a node
# crash mid-workload must lose no committed write, fail no client operation
# after the failover epoch, and keep the sojourn p99 of the surviving clients
# (the stall the crash causes) within one expiry of the scaled sync watchdog.
# See docs/ELASTIC.md.
failover:
	$(GO) test -run TestFailoverClaims -count=1 ./internal/rmem

# shard-stress hammers the conservative-parallel engine and the incremental
# flow solver under the race detector, then the torus machine on the sharded
# engine (the mpi.TorusWorld cross-engine property tests, the torus run's
# allocation budget at 1 and 2 shards, plus the engine bench rows) — with
# real goroutine parallelism, so window-barrier, cross-shard-queue and
# recycled-delivery races surface. Shards run event callbacks only: processes,
# and so every MPI world, run on the sequential engine; make race covers them.
shard-stress:
	$(GO) test -race -count=2 ./internal/sim/ ./internal/flow/
	$(GO) test -race -count=2 -run 'TestTorus|TestAllocsTorusRunBudget' ./internal/mpi/
	$(GO) test -race -count=1 -run 'TestEngineBenchSmall' ./internal/bench/

# alloc-test runs only the host-cost-pinned tests: 0 allocs/op on the pack
# (direct_pack_ff and generic),
# PIO, store-barrier, block-writer, DMA-request and event/hand-off fast paths
# (the yielding Sleep and the elided one), for a RecvTimeout or AwaitTimeout
# satisfied before expiry (TestAllocsRecvTimeoutSteadyState), per flow
# (Transfer, StartCall, a warm re-solve) and for Contiguous() on a committed
# datatype; within 84.7 kB and 64 objects for the first empty 8x2 world in a
# process and 84.0 kB and 51 for a later one, with its per-pair structs at
# their pinned size (an 80 B sendPort; a receive's Request at 160 B), at most 2.2x the objects for twice the
# ranks, a 512x1 world within 9 520 objects and 59.4 MB, none for a contended
# Mutex or a blocked credit Acquire (TestAllocsContendedSync), 64 spawns
# within 8 (TestAllocsProcBlocks), none for starting and
# ending 72 processes once a program has run some, nor for giving their
# coroutines back to the pool (TestAllocsProcStartWarm,
# TestAllocsCoroutineHandBackAllocFree) or after a process panicked, called
# Goexit or was released (TestHowAProcessEnds), exactly 13 objects for a
# coroutine the pool cannot supply (TestAllocsColdCoroutine), a free list
# sized for 16 records refilled in one block (TestTakeFreeRefillsInBlocks),
# none for a world
# communicator's group (TestGroupRanksAllocatesNothing), no process started
# that the run does not need; a torus run within one constant of objects at
# any machine size
# (TestAllocsTorusRunBudget: 64 for 64 or 216 nodes on one shard, the larger
# at most 20 above the smaller; 1 800 B per node for either, the larger at
# most 1.4x the smaller's per node) and a torus hop count at none
# (TestHopCountAllocFree); and the per-message budgets, all measured at
# tags >= 256: a 64 B round trip (no allocation at two tag pairs, at most 4
# process switches, 24 events), a 4 KiB eager
# message (none), a 256 KiB rendezvous message on every data engine, the
# staged path included (none), an 8-rank allreduce on every algorithm (at
# most 4 per rank; the 2 MiB ring, and recursive doubling at 4 KiB and 2 MiB,
# also in place, recursive doubling's in-place calls borrowing no more pooled
# buffers than its distinct ones), no pooled scratch block for
# a 2 MiB or 4 KiB ring allreduce, a 4 KiB one-sided ring allreduce or a
# 4 KiB point-to-point reduce with distinct dense buffers or in place
# (TestAllocsRingAllreduceBorrowsNoScratch), the collective chooser's picks
# for Allreduce and Alltoall on an 8x2 communicator (none:
# TestAllocsCollChoiceAllocFree), a put + fence epoch (none), an emulated one-sided put,
# remote-put get and accumulate (none: TestAllocsRPCBudget), and an rmem Put,
# Get or Commit round (none: TestAllocsOpBudget). CI fails the bench job if
# these regress.
alloc-test:
	$(GO) test -run 'TestAllocs|AllocFree|Budget|TestTracingOffBoxesNothing|TestPairStructSizes|TestWorld512Builds|TestProcsPerWorld|TestTakeFreeRefillsInBlocks|TestGroupRanksAllocatesNothing|TestHowAProcessEnds' -v ./internal/pack/ ./internal/datatype/ ./internal/sci/ ./internal/bufpool/ ./internal/obs/ ./internal/obs/flight/ ./internal/sim/ ./internal/flow/ ./internal/torus/ ./internal/mpi/ ./internal/osc/ ./internal/rmem/

# trace-demo produces a Chrome trace-event timeline from a ping-pong sweep
# (load /tmp/scimpich-trace.json in Perfetto or chrome://tracing) and
# aggregates it with tracestat. It fails unless the file carries instants:
# they are the flight recorder's events, and an empty bridge would otherwise
# pass unnoticed. See docs/OBSERVABILITY.md.
trace-demo:
	$(GO) run ./cmd/repro -only pingpong -min 64 -max 262144 \
		-trace-out /tmp/scimpich-trace.json \
		-metrics-out /tmp/scimpich-metrics.txt
	$(GO) run ./cmd/tracestat -actors /tmp/scimpich-trace.json > /tmp/scimpich-tracestat.txt
	@cat /tmp/scimpich-tracestat.txt
	@grep -Eq '^# .* spans, [1-9][0-9]* instants\)$$' /tmp/scimpich-tracestat.txt || \
		{ echo "trace-demo: no instants in the export (flight recorder -> Chrome bridge empty)" >&2; exit 1; }

# postmortem-demo crashes a node inside an rmem commit's fence round,
# captures the flight-recorder dump at the first typed error, and renders the
# causal post-mortem — the full dump-on-failure pipeline in one command. At
# 5 027 µs the crash splits the round: two survivors complete it, the third
# loses the crashed node's packet and stays in it. The demo fails unless the
# report names the split fence. See docs/OBSERVABILITY.md.
postmortem-demo:
	$(GO) run ./cmd/rmemserve -crash-node 1 -crash-at 5027us \
		-flight-out /tmp/scimpich-flight.json
	$(GO) run ./cmd/postmortem /tmp/scimpich-flight.json > /tmp/scimpich-postmortem.txt
	@cat /tmp/scimpich-postmortem.txt
	@grep -q 'split-fence' /tmp/scimpich-postmortem.txt || \
		{ echo "postmortem-demo: the report does not name the split fence" >&2; exit 1; }
