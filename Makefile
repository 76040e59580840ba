# Local dev and CI invoke the same targets (.github/workflows/ci.yml
# calls make), so a green `make build vet fmt-check test race` locally
# means a green PR.

GO ?= go

.PHONY: build vet fmt fmt-check lint verify test race bench bench-smoke bench-pair bench-record report report-cmp fuzz-smoke fleet-smoke fleet-cache-cmp fleet-crowd-cmp fleet-scale

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -w .

fmt-check:
	@files="$$(gofmt -l .)"; \
	if [ -n "$$files" ]; then \
		echo "gofmt needed on:"; echo "$$files"; exit 1; \
	fi

# The contract analyzers (simclock, maprange, floateq, hotalloc, goctx)
# over the whole module, with the stale-suppression audit: every
# //vodlint:allow in the tree must still suppress a diagnostic of a
# known analyzer. TestRepoLintClean makes the same check inside
# `make test`. Loads from source: no network needed.
lint:
	$(GO) run ./cmd/vodlint .

# Everything a PR must pass, in the order CI runs it.
verify: build vet fmt-check lint test report-cmp

# Native fuzz targets, a few seconds each — the CI smoke setting.
# Targets are discovered by scanning test files, so a new Fuzz* harness
# anywhere in the module joins the smoke run automatically instead of
# silently never fuzzing.
FUZZTIME ?= 10s
fuzz-smoke:
	@set -e; found=0; \
	for dir in $$($(GO) list -f '{{.Dir}}' ./...); do \
		targets="$$(grep -hoE '^func Fuzz[A-Za-z0-9_]*' "$$dir"/*_test.go 2>/dev/null | sed 's/^func //' | sort -u)"; \
		[ -n "$$targets" ] || continue; \
		for t in $$targets; do \
			found=1; \
			echo "fuzz-smoke: $$dir $$t"; \
			$(GO) test "$$dir" -run '^$$' -fuzz "^$$t$$" -fuzztime $(FUZZTIME); \
		done; \
	done; \
	[ "$$found" = 1 ] || { echo "fuzz-smoke: no fuzz targets discovered" >&2; exit 1; }

test:
	$(GO) test ./...

# -count=1 defeats the test cache so the race detector actually re-runs
# the concurrent paths (determinism + origin-cache stress tests).
race:
	$(GO) test -race -count=1 ./...

# The repository's benchmark (BENCHMARK.json, bench/README.md): four
# workloads, untraced then traced, merged into bench/out/latest.json.
# SEED and SECONDS_PER_RUN reach bench/run.sh through the environment.
bench:
	bench/run.sh

# Every Benchmark* function, one iteration each: validates that the
# component micro-benchmarks still compile and run without letting
# timing noise gate anything.
bench-smoke:
	$(GO) test -bench . -benchtime 1x -run '^$$' ./...

# The regression gate: build PARENT in a git worktree under
# .bench_build/, run bench/run.sh on it and on the working tree, and
# hold the two sets to what bench/run.sh --repeat holds two sets of one
# commit to: every end-to-end metric within its BENCHMARK.json bound
# (either way: the comparator does not know which side is newer), every
# count and simulated statistic (sim.report_sha48 included) equal.
# PAIRS=n repeats the pair, alternating which side runs first, and the
# gate fails when more than half of the pairs disagree. A moved count
# disagrees in every pair and a cost past its bound in most; the host's
# own bursts (two of the first seven pairs run on the build box, with
# identical code on both sides) do not repeat. Each pair's two sets stay in
# bench/out/pair<i>/{parent,change}.
PAIRS ?= 1
bench-pair:
	@[ -n "$(PARENT)" ] || { echo "usage: make bench-pair PARENT=<ref> [PAIRS=n]" >&2; exit 2; }
	@set -e; wt="$(CURDIR)/.bench_build/parent"; \
	git worktree remove --force "$$wt" 2>/dev/null || git worktree prune; \
	git worktree add --detach "$$wt" "$(PARENT)" >/dev/null; \
	trap 'git worktree remove --force "$$wt"' EXIT; \
	disagree=0; \
	for i in $$(seq 1 $(PAIRS)); do \
		if [ $$((i % 2)) = 1 ]; then order="$$wt ."; else order=". $$wt"; fi; \
		for tree in $$order; do echo "== bench/run.sh in $$tree" >&2; "$$tree/bench/run.sh"; done; \
		pair="bench/out/pair$$i"; rm -rf "$$pair"; mkdir -p "$$pair"; \
		cp -r "$$wt/bench/out/set1" "$$pair/parent"; cp -r bench/out/set1 "$$pair/change"; \
		echo "== pair $$i of $(PAIRS): $(PARENT) against the working tree" >&2; \
		bench/out/bench.bin -collect "$$pair/parent" -compare "$$pair/change" >/dev/null || disagree=$$((disagree + 1)); \
	done; \
	echo "bench-pair: $$disagree of $(PAIRS) pairs disagree" >&2; \
	[ $$((2 * disagree)) -le $(PAIRS) ]

# The kept trajectory: append one line per workload of the last
# bench/run.sh to BENCH_history.jsonl, each holding the two one-line
# results run.sh left in bench/out/set1 (host-scaled end-to-end metrics;
# ladder rungs, probes and sim.report_sha48). Run it on the tree the PR
# will commit, so the commit reads <parent>-dirty; earlier lines are
# never rewritten.
bench-record:
	@[ -n "$(PR)" ] || { echo "usage: make bench-record PR=<n>  (after make bench)" >&2; exit 2; }
	@set -e; commit="$$(git describe --always --dirty --abbrev=7)"; \
	for f in bench/out/set1/*.trace0.json; do \
		w="$$(basename "$$f" .trace0.json)"; \
		[ -s "$$f" ] && [ -s "bench/out/set1/$$w.trace1.json" ] || { echo "bench-record: no results in bench/out/set1; run make bench first" >&2; exit 1; }; \
		printf '{"pr":%s,"commit":"%s","workload":"%s","end_to_end":%s,"per_layer":%s}\n' \
			"$(PR)" "$$commit" "$$w" "$$(cat "$$f")" "$$(cat "bench/out/set1/$$w.trace1.json")"; \
	done >>BENCH_history.jsonl

# Regenerate REPORT.md on all cores (vodreport -workers N to override).
report:
	$(GO) run ./cmd/vodreport -out REPORT.md

# The committed REPORT.md is the ground truth a changed engine is held to
# (expcache.EngineVersion): a byte-stable regeneration must equal it once
# its per-experiment `_regenerated in …_` timing lines are dropped; blank
# lines are squeezed on both sides because each dropped line leaves one.
report-cmp:
	@dir="$$(mktemp -d)"; trap 'rm -rf "$$dir"' EXIT; \
	$(GO) run ./cmd/vodreport -stable -q -out "$$dir/fresh.md" && \
	grep -v '^_regenerated in ' REPORT.md | cat -s >"$$dir/committed" && \
	cat -s "$$dir/fresh.md" | cmp - "$$dir/committed" && \
	echo "report-cmp: REPORT.md equals a fresh vodreport -stable"

# Population-run gate: a small fleet under the race detector, then the
# workers-determinism contract — the same seed must produce byte-identical
# JSON reports for a serial and an 8-way-concurrent run — and the
# all-background sentinel: -fidelity -1 must mean no full sessions at all.
fleet-smoke:
	$(GO) test -race -count=1 ./internal/fleet/
	$(GO) build -o bin/vodfleet ./cmd/vodfleet
	dir="$$(mktemp -d)"; trap 'rm -rf "$$dir"' EXIT; \
	bin/vodfleet -sessions 600 -seed 1 -workers 1 -q -json "$$dir/w1.json" && \
	bin/vodfleet -sessions 600 -seed 1 -workers 8 -q -json "$$dir/w8.json" && \
	cmp "$$dir/w1.json" "$$dir/w8.json" && \
	bin/vodfleet -sessions 600 -seed 1 -fidelity -1 -q -json "$$dir/bg.json" && \
	grep -q '"full_sessions": 0' "$$dir/bg.json" && \
	echo "fleet-smoke: workers=1 and workers=8 reports are byte-identical; -fidelity -1 runs all-background"

# Edge-cache determinism gate, mirroring fleet-smoke's cmp discipline
# for the cdn tier (DESIGN.md §13). Three identities must hold:
#   1. no -cache flag vs a transparent spec (zero-size edge, no TTL,
#      unlimited metro) — the transparent config must normalize away and
#      leave the report byte-identical, cdn section and all;
#   2. workers=1 vs workers=8 with the full tier on (finite edge +
#      metro + backhaul + cold cells + a mid-run edge failure) — cache
#      state is per-cell/per-shard, so the schedule cannot reach it;
#   3. determinism is not vacuous: the cached run must differ from the
#      uncached one (the tier actually changed delivery);
#   4. the flash crowd — the same tier with -hotspot 0.8 -fidelity 0.02,
#      bench/'s fleet_flashcrowd shape — at workers=1, 2 and 8: the one
#      layout with a crowded cold cell, and the per-worker scratch (the
#      network, cohort, group, full sessions and edge/metro tier it lends
#      each cell) is the one fleet state that outlives a shard, so which
#      shards share a scratch must not reach the bytes. At workers=1 one
#      scratch serves every shard, hot cell first, the order the bench
#      times. All three runs carry FLEET_FLASH_CEILING_MB, calibrated at
#      100k sessions over five runs per worker count: the sampler peaks
#      at 31.8–31.9 MiB at workers 1, 32.0–32.3 at 2 and 31.3–32.1 at 8
#      now that a cell borrows its network, cohort and group and a full
#      session exists only while it plays; with those built per cell and
#      every full session built at the start it peaked at 47–49 / 41–55 /
#      42–57 MiB — 41 MiB is 1.25x the present worst case.
# FLEET_CACHE_SESSIONS=100000 (with FLEET_CACHE_FIDELITY=0.05) is the
# CI scale tier; the cached runs also carry the heap ceiling so the
# cache slabs stay inside the fleet memory contract.
FLEET_CACHE_SESSIONS ?= 600
FLEET_CACHE_FIDELITY ?= 1
FLEET_CACHE_CEILING_MB ?= 512
FLEET_FLASH_CEILING_MB ?= 41
FLEET_CACHE_SPEC ?= edge:64MiB,metro:2GiB,ttl=6h
fleet-cache-cmp:
	$(GO) build -o bin/vodfleet ./cmd/vodfleet
	dir="$$(mktemp -d)"; trap 'rm -rf "$$dir"' EXIT; \
	bin/vodfleet -sessions $(FLEET_CACHE_SESSIONS) -fidelity $(FLEET_CACHE_FIDELITY) \
		-seed 1 -workers 4 -q -json "$$dir/off.json" && \
	bin/vodfleet -sessions $(FLEET_CACHE_SESSIONS) -fidelity $(FLEET_CACHE_FIDELITY) \
		-seed 1 -workers 4 -q \
		-cache edge:0,metro:-1,ttl=0 -json "$$dir/inf.json" && \
	cmp "$$dir/off.json" "$$dir/inf.json" && \
	bin/vodfleet -sessions $(FLEET_CACHE_SESSIONS) -fidelity $(FLEET_CACHE_FIDELITY) \
		-seed 1 -workers 2 -q -memceiling-mb $(FLEET_CACHE_CEILING_MB) \
		-cache $(FLEET_CACHE_SPEC) -coldcells 0-3 -cachefail cell=5,t=60s \
		-json "$$dir/c2.json" && \
	bin/vodfleet -sessions $(FLEET_CACHE_SESSIONS) -fidelity $(FLEET_CACHE_FIDELITY) \
		-seed 1 -workers 8 -q -memceiling-mb $(FLEET_CACHE_CEILING_MB) \
		-cache $(FLEET_CACHE_SPEC) -coldcells 0-3 -cachefail cell=5,t=60s \
		-json "$$dir/c8.json" && \
	cmp "$$dir/c2.json" "$$dir/c8.json" && \
	! cmp -s "$$dir/off.json" "$$dir/c2.json" && \
	bin/vodfleet -sessions $(FLEET_CACHE_SESSIONS) -hotspot 0.8 -fidelity 0.02 \
		-seed 1 -workers 1 -q -memceiling-mb $(FLEET_FLASH_CEILING_MB) \
		-cache $(FLEET_CACHE_SPEC) -coldcells 0-3 -cachefail cell=5,t=60s \
		-json "$$dir/h1.json" && \
	bin/vodfleet -sessions $(FLEET_CACHE_SESSIONS) -hotspot 0.8 -fidelity 0.02 \
		-seed 1 -workers 2 -q -memceiling-mb $(FLEET_FLASH_CEILING_MB) \
		-cache $(FLEET_CACHE_SPEC) -coldcells 0-3 -cachefail cell=5,t=60s \
		-json "$$dir/h2.json" && \
	bin/vodfleet -sessions $(FLEET_CACHE_SESSIONS) -hotspot 0.8 -fidelity 0.02 \
		-seed 1 -workers 8 -q -memceiling-mb $(FLEET_FLASH_CEILING_MB) \
		-cache $(FLEET_CACHE_SPEC) -coldcells 0-3 -cachefail cell=5,t=60s \
		-json "$$dir/h8.json" && \
	cmp "$$dir/h1.json" "$$dir/h2.json" && \
	cmp "$$dir/h2.json" "$$dir/h8.json" && \
	echo "fleet-cache-cmp: transparent cache byte-identical to disabled; cached fleet and cached flash crowd byte-identical across worker counts"

# The million-viewer flash crowd (nightly): -hotspot 0.8 puts 800k
# members on cell 0, no cache tier. Workers 1, 2 and 8 must emit
# byte-identical JSON under FLEET_CROWD_CEILING_MB; at workers 1 one
# scratch serves every shard, hot cell first. Over five runs per worker
# count the sampler peaks at 255.4–255.5 MiB at workers 1, 251.7–255.2
# at 2 and 248.8–255.0 at 8, with 260 MiB allocated a run, now that a
# cell borrows its network, cohort and group and a full session exists
# only while it plays (before: 364–432 at 2 and 410–417 at 8, 498 MiB
# allocated; 616–625 while the cohort's control and Summary state was
# sized by the population); 320 MiB is 1.25x the worst case. About 20 s
# a run on one core.
FLEET_CROWD_SESSIONS ?= 1000000
FLEET_CROWD_CEILING_MB ?= 320
fleet-crowd-cmp:
	$(GO) build -o bin/vodfleet ./cmd/vodfleet
	dir="$$(mktemp -d)"; trap 'rm -rf "$$dir"' EXIT; \
	bin/vodfleet -sessions $(FLEET_CROWD_SESSIONS) -hotspot 0.8 -fidelity 0.02 \
		-seed 1 -workers 1 -q -memceiling-mb $(FLEET_CROWD_CEILING_MB) -json "$$dir/w1.json" && \
	bin/vodfleet -sessions $(FLEET_CROWD_SESSIONS) -hotspot 0.8 -fidelity 0.02 \
		-seed 1 -workers 2 -q -memceiling-mb $(FLEET_CROWD_CEILING_MB) -json "$$dir/w2.json" && \
	bin/vodfleet -sessions $(FLEET_CROWD_SESSIONS) -hotspot 0.8 -fidelity 0.02 \
		-seed 1 -workers 8 -q -memceiling-mb $(FLEET_CROWD_CEILING_MB) -json "$$dir/w8.json" && \
	cmp "$$dir/w1.json" "$$dir/w2.json" && \
	cmp "$$dir/w2.json" "$$dir/w8.json" && \
	echo "fleet-crowd-cmp: $(FLEET_CROWD_SESSIONS)-session flash crowd byte-identical across worker counts under $(FLEET_CROWD_CEILING_MB) MiB"

# Scale gate: a 100k-session mixed-fidelity fleet (5% full player, 95%
# background tier, 8 focus members) run at two worker counts must emit
# byte-identical JSON while the in-process heap sampler enforces the
# memory contract (-memceiling-mb aborts the run the moment the live
# heap crosses the ceiling — no external RSS probe needed). The second
# half is the warm-sweep gate: a hotspot sweep sharing the cell cache
# must produce the hotspot point byte-identical to a cold standalone run
# of the same config — incremental recomputation may only skip work,
# never change bytes. The sweep is the one run that holds a CellCache, so
# it carries its own ceiling, calibrated at 100k sessions: with compact
# finished cells the sampler peaks at 55–66 MiB (memo: 4 184 cells,
# 4.6 MiB), with the dense 13 KiB cells before them at 160–175 MiB —
# 128 MiB aborts the latter and leaves the former 1.9x headroom. Override
# FLEET_SCALE_SESSIONS=1000000 for the nightly million-session run
# (which passes its own FLEET_SWEEP_CEILING_MB: the 1M sweep peaks at
# 366 MiB, most of it the 200k-member hot cell of the second point), and
# FLEET_SCALE_DIR to keep the reports for artifact upload.
FLEET_SCALE_SESSIONS ?= 100000
FLEET_SCALE_CEILING_MB ?= 512
FLEET_SWEEP_CEILING_MB ?= 128
FLEET_SCALE_DIR ?=
fleet-scale:
	$(GO) build -o bin/vodfleet ./cmd/vodfleet
	@if [ -n "$(FLEET_SCALE_DIR)" ]; then \
		dir="$(FLEET_SCALE_DIR)"; mkdir -p "$$dir"; \
	else \
		dir="$$(mktemp -d)"; trap 'rm -rf "$$dir"' EXIT; \
	fi; \
	set -x; \
	bin/vodfleet -sessions $(FLEET_SCALE_SESSIONS) -fidelity 0.05 -focus 8 -seed 1 \
		-workers 2 -q -memceiling-mb $(FLEET_SCALE_CEILING_MB) -json "$$dir/w2.json" && \
	bin/vodfleet -sessions $(FLEET_SCALE_SESSIONS) -fidelity 0.05 -focus 8 -seed 1 \
		-workers 8 -q -memceiling-mb $(FLEET_SCALE_CEILING_MB) -json "$$dir/w8.json" && \
	cmp "$$dir/w2.json" "$$dir/w8.json" && \
	bin/vodfleet -sessions $(FLEET_SCALE_SESSIONS) -fidelity 0.05 -seed 1 \
		-workers 8 -q -memceiling-mb $(FLEET_SWEEP_CEILING_MB) -sweep hotspot=0,0.2 -json "$$dir/sweep.json" && \
	bin/vodfleet -sessions $(FLEET_SCALE_SESSIONS) -fidelity 0.05 -seed 1 -hotspot 0.2 \
		-workers 8 -q -json "$$dir/cold-hotspot.json" && \
	cmp "$$dir/sweep.json.hotspot=0.2" "$$dir/cold-hotspot.json" && \
	echo "fleet-scale: $(FLEET_SCALE_SESSIONS) sessions byte-identical across worker counts under a $(FLEET_SCALE_CEILING_MB) MiB heap ceiling; warm sweep byte-identical to cold run under $(FLEET_SWEEP_CEILING_MB) MiB"
