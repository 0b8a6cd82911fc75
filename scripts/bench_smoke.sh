#!/bin/sh
# Bench smoke: run the nicsim, offpath, tenants and bounds sections of
# the bench harness.
#
# The sections always enforce correctness, regardless of environment:
#   - static per-type latency intervals contain the simulated per-type
#     means for every example NF on netronome/soc/bluefield, analyses
#     stay under the 100 ms per-NF budget, and the SLO predicate prunes
#     at least one (but not every) cell of the standard sweep grid;
#   - sharded runs byte-identical between 1 domain and N domains;
#   - event-path results byte-identical with a telemetry collector
#     installed;
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
# The wall-clock gates print a warning by default and only fail when
# CLARA_BENCH_ENFORCE=1, because shared CI runners are too noisy for
# hard wall-clock gates: a >20% packets/sec regression against the
# committed BENCH_nicsim.json (dpi and nat on the event path, dpi
# sharded), and a telemetry collector costing more than 2%.
#
# The fresh snapshot is written to CLARA_BENCH_JSON (default: a temp
# file, so a smoke run never dirties the committed baseline), always
# as schema v2 (provenance, nicsim and offpath entries).
set -eu
cd "$(dirname "$0")/.."
: "${CLARA_BENCH_JSON:=$(mktemp "${TMPDIR:-/tmp}/clara-bench-nicsim.XXXXXX")}"
export CLARA_BENCH_JSON
dune exec bench/main.exe -- nicsim offpath tenants bounds

# The snapshot must be valid JSON with the schema the readers accept.
python3 -m json.tool "$CLARA_BENCH_JSON" > /dev/null
schema=$(sed -n 's/.*"schema":[[:space:]]*\([0-9]*\).*/\1/p' "$CLARA_BENCH_JSON" | head -1)
case "$schema" in
  2) echo "snapshot schema v$schema OK" ;;
  *) echo "unexpected snapshot schema '$schema'" >&2; exit 1 ;;
esac
echo "bench smoke OK (snapshot: $CLARA_BENCH_JSON)"
