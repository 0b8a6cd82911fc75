#!/bin/sh
# Print `clara predict` and `clara analyze --json` for every clean
# example NF (the broken_* ones are lint fixtures) on netronome, soc
# and bluefield at 64 B and 1,200 B payloads; then, per NF and target,
# `clara predict --packets 500 --trace FILE` with the MD5 of its
# Perfetto timeline, and on bluefield the same at `--hit-ratio 0.5`;
# then `clara chain firewall nat` on each of the three targets.  CI
# diffs the output against scripts/predict_golden.txt, so a change that
# moves any prediction, the ILP mapping, a symbolic path, throughput,
# energy, a partial-offload split, a chain latency or a byte of the
# predicted timeline shows up outside perfbench's corpus as well.
#
#   scripts/predict_golden.sh [CLARA_EXE] > scripts/predict_golden.txt
#
# CLARA_EXE defaults to the dev build of the CLI.
set -eu
exe=${1:-./_build/default/bin/clara_cli.exe}
timeline=$(mktemp)
trap 'rm -f "$timeline"' EXIT
# The prediction of 500 packets, then its timeline's MD5.
traced() {
  "$exe" predict "$@" --packets 500 --trace "$timeline" 2> /dev/null
  echo "timeline md5 $(md5sum < "$timeline" | cut -d' ' -f1)"
}
for f in examples/nf_sources/*.clara; do
  case "$(basename "$f")" in broken_*) continue ;; esac
  for nic in netronome soc bluefield; do
    for payload in 64 1200; do
      echo "== $(basename "$f") --nic $nic --payload $payload"
      "$exe" predict "$f" --nic "$nic" --payload "$payload"
      echo "== analyze --json $(basename "$f") --nic $nic --payload $payload"
      "$exe" analyze "$f" --nic "$nic" --payload "$payload" --json
    done
    echo "== predict --trace $(basename "$f") --nic $nic"
    traced "$f" --nic "$nic"
  done
  echo "== predict --trace $(basename "$f") --nic bluefield --hit-ratio 0.5"
  traced "$f" --nic bluefield --hit-ratio 0.5
done
for nic in netronome soc bluefield; do
  echo "== chain firewall.clara nat.clara --nic $nic"
  "$exe" chain examples/nf_sources/firewall.clara examples/nf_sources/nat.clara --nic "$nic"
done
