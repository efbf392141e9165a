# Convenience targets; everything is plain dune underneath.

.PHONY: all check smoke explore explore-smoke bench bench-cfs bench-faults \
	bench-swarm bench-routed bench-scale bench-congestion bench-bootstorm \
	bench-guard fleet-smoke profile-smoke coverage clean

all:
	dune build

# Tier-1: full build + every test suite + the schedule-exploration
# smoke sweep (see DESIGN.md, "Schedule exploration").
check:
	dune build @runtest
	$(MAKE) explore-smoke
	$(MAKE) profile-smoke
	$(MAKE) fleet-smoke

# Schedule exploration, smoke budget: every registered scenario under
# FIFO + shuffle seeds 1..5 + adversarial, then the detector self-test
# against the planted bugs (the lost wakeup and the union lost
# fallback).  Tier-1 time; wired into check.
explore-smoke:
	dune exec bin/p9explore.exe
	dune exec bin/p9explore.exe -- --selftest

# The full sweep: 50 shuffle seeds per scenario.  Not tier-1; run it
# after touching anything that schedules events, sleeps, or wakeups.
# Replay any failure it prints with: p9explore -s SCENARIO -p POLICY
explore:
	dune exec bin/p9explore.exe -- -n 50

# Observability smoke: run the Table 1 bench with tracing attached and
# emit BENCH_table1.json.  The bench exits non-zero if any path records
# zero events or all-zero counters, so a silent instrumentation
# regression fails CI here.
smoke:
	dune exec bench/main.exe -- json

bench:
	dune exec bench/main.exe

# The cfs proof: replay a diskless boot over a 9600-baud line raw vs
# cached.  The bench exits non-zero if the cached run does not use
# strictly fewer 9P round trips and strictly less virtual time, so a
# cache regression fails CI here.
bench-cfs:
	dune exec bench/main.exe -- cfs

# The fault-injection proof: IL, TCP, and URP each complete a transfer
# under the canonical 20% burst-loss + duplication + reorder schedule,
# and two same-seed runs emit byte-identical BENCH_faults.json.  The
# bench exits non-zero on non-convergence, on a schedule that injects
# nothing, or on a determinism break.
bench-faults:
	dune exec bench/main.exe -- faults

# The swarm proof: 1000 concurrent conversations (IL, then TCP) dialed
# through CS on one Ethernet segment, all simultaneously established at
# a barrier.  The bench exits non-zero if any conversation fails to
# converge, if peak concurrency falls short, if engine events per
# conversation regress past the recorded baseline (e.g. someone
# reintroduces a polling ticker), or on a determinism break.
bench-swarm:
	dune exec bench/main.exe -- swarm

# The routed-internet proof: 10k+ concurrent conversations dialed
# across a 20-subnet topology (16 leaf subnets, two backbones, a server
# subnet, and a Datakit transit) joined by gateway hosts.  The bench
# exits non-zero on non-convergence, peak concurrency < 10000, fewer
# than 12 segments, an idle Datakit transit, any drop at the routing
# choke point, an events-per-conversation regression, or a determinism
# break.
bench-routed:
	dune exec bench/main.exe -- routed

# The scale guard: the routed swarm at N, 2N and 4N conversations
# (4,928, 10,080, 20,160).  The bench exits non-zero if the profiler's
# minor words per event at 4N exceed N's by more than 10% (per-event
# cost must not grow with the number of live processes), if any point
# fails to converge, if the engine's peak live processes fall short
# of the conversation count, or if any point allocates more than one
# word per event straight into the major heap (a staging buffer per
# read).  Also run by bench-guard.
bench-scale:
	dune exec bench/main.exe -- scale

# The congestion proof: IL vs baseline TCP vs tcpcc across uniform 5%
# loss, Gilbert 20% burst loss, and the PR 4 synchronized-close collapse
# schedule (10 Mb/s, a thousand conversations closing at once).  The
# bench exits non-zero unless the baseline still collapses AND tcpcc
# converges in bounded retransmissions on the same schedule, or on a
# determinism break.  Golden-compared under bench-guard.
bench-congestion:
	dune exec bench/main.exe -- congestion-matrix

# The boot-storm proof: 104 terminals (8 racks x 13) power on at the
# same instant and replay the staged boot through the terminal-tier /
# rack-tier cfs hierarchy, then again mounted directly on the origin.
# The bench exits non-zero unless every terminal boots, origin
# round-trip offload is >= 2x, single-flight coalescing engaged at the
# rack tier, and two same-seed runs emit byte-identical JSON.
# Golden-compared under bench-guard.
bench-bootstorm:
	dune exec bench/main.exe -- bootstorm

# Fleet smoke: a 2-rack x 4-terminal storm with the same guards at
# smoke thresholds.  Tier-1 time; wired into check.
fleet-smoke:
	dune exec bench/main.exe -- bootstorm-smoke

# Guard: under the default FIFO policy the virtual-time behavior must
# reproduce the golden JSONs byte for byte.  The wall-clock profiler
# reports go to the BENCH_*.perf.json sidecars, whose shape (not their
# machine-dependent values) is checked.
bench-guard:
	dune exec bench/main.exe -- guard

# Profiler smoke: a tiny swarm with the wall-clock engine profiler
# attached; fails unless events/s > 0 and the per-layer shares sum to
# ~1.0.  Tier-1 time; wired into check.
profile-smoke:
	dune exec bench/main.exe -- profile

# Line-coverage report via bisect_ppx, when the switch has it; the dune
# profile only turns instrumentation on under --instrument-with, so the
# normal build never pays for it.
coverage:
	@if ocamlfind query bisect_ppx >/dev/null 2>&1; then \
	  find . -name '*.coverage' -delete; \
	  dune runtest --force --instrument-with bisect_ppx \
	  && bisect-ppx-report summary \
	  && bisect-ppx-report html \
	  && echo "report: _coverage/index.html"; \
	else \
	  echo "bisect_ppx is not installed in this switch; skipping."; \
	  echo "  opam install bisect_ppx   # then re-run: make coverage"; \
	fi

clean:
	dune clean
	rm -f BENCH_*.json
	find . -name '*.coverage' -delete 2>/dev/null || true
