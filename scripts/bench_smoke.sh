#!/bin/sh
# Bench smoke: run the nicsim, offpath, tenants and bounds sections of
# the bench harness.
#
# The sections always enforce correctness, regardless of environment:
#   - static per-type latency intervals contain the simulated per-type
#     means for every example NF on netronome/soc/bluefield, analyses
#     stay under the 100 ms per-NF budget, and the SLO predicate prunes
#     at least one (but not every) cell of the standard sweep grid;
#   - fast path byte-identical to the event path on stateless NFs
#     (latency summary, drops, hit rates), with >0 packets replayed;
#   - zero replays on a stateful NF, results identical to Event_only;
#   - sharded runs byte-identical between 1 domain and N domains;
#   - repeated N-tenant WRR runs byte-identical (scheduler determinism);
#   - under skewed weights the heavy tenant drops no more and admits
#     no fewer packets than a starved weight-1 tenant (goodput/drops,
#     not p99 — percentiles cover admitted packets only, so a starved
#     tenant shedding its worst-wait packets reports a deceptive p99);
#   - on the off-path bluefield target: the pinned hit-ratio sweep is
#     deterministic and monotone with a 0-vs-1 gap of at least the
#     upcall cost, predict-vs-sim p50 agreement is within bound, and
#     the netronome/bluefield verdicts diverge (lpm vs dpi).
#
# The throughput gate — the >20% fast-path packets/sec regression check
# against the committed BENCH_nicsim.json — prints a warning by default
# and only fails when CLARA_BENCH_ENFORCE=1, because shared CI runners
# are too noisy for hard wall-clock gates.  The fast path's speedup over
# the event path is printed as a figure, not gated: it depends on how
# fast the event path is as much as on the fast path.
#
# The fresh snapshot is written to CLARA_BENCH_JSON (default: a temp
# file, so a smoke run never dirties the committed baseline).  The
# committed baseline may be schema v1 (nicsim numbers only) or v2
# (adds provenance + the offpath gap entry); the bench reads both, and
# fresh snapshots are always written as v2.
set -eu
cd "$(dirname "$0")/.."
: "${CLARA_BENCH_JSON:=$(mktemp "${TMPDIR:-/tmp}/clara-bench-nicsim.XXXXXX")}"
export CLARA_BENCH_JSON
dune exec bench/main.exe -- nicsim offpath tenants bounds

# The snapshot must be valid JSON with a schema the readers accept.
python3 -m json.tool "$CLARA_BENCH_JSON" > /dev/null
schema=$(sed -n 's/.*"schema":[[:space:]]*\([0-9]*\).*/\1/p' "$CLARA_BENCH_JSON" | head -1)
case "$schema" in
  1|2) echo "snapshot schema v$schema OK" ;;
  *) echo "unexpected snapshot schema '$schema'" >&2; exit 1 ;;
esac
echo "bench smoke OK (snapshot: $CLARA_BENCH_JSON)"
