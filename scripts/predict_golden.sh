#!/bin/sh
# Print `clara predict` and `clara analyze --json` for every clean
# example NF (the broken_* ones are lint fixtures) on netronome, soc
# and bluefield at 64 B and 1,200 B payloads, then `clara chain
# firewall nat` on each of the three targets.  CI diffs the output
# against scripts/predict_golden.txt, so a change that moves any
# prediction, the ILP mapping, a symbolic path, throughput, energy, a
# partial-offload split or a chain latency shows up outside perfbench's
# corpus as well.
#
#   scripts/predict_golden.sh [CLARA_EXE] > scripts/predict_golden.txt
#
# CLARA_EXE defaults to the dev build of the CLI.
set -eu
exe=${1:-./_build/default/bin/clara_cli.exe}
for f in examples/nf_sources/*.clara; do
  case "$(basename "$f")" in broken_*) continue ;; esac
  for nic in netronome soc bluefield; do
    for payload in 64 1200; do
      echo "== $(basename "$f") --nic $nic --payload $payload"
      "$exe" predict "$f" --nic "$nic" --payload "$payload"
      echo "== analyze --json $(basename "$f") --nic $nic --payload $payload"
      "$exe" analyze "$f" --nic "$nic" --payload "$payload" --json
    done
  done
done
for nic in netronome soc bluefield; do
  echo "== chain firewall.clara nat.clara --nic $nic"
  "$exe" chain examples/nf_sources/firewall.clara examples/nf_sources/nat.clara --nic "$nic"
done
