#!/bin/sh
# Campaign determinism sweep + documentation build smoke test.
#
# The campaign layer's headline invariant is that -j only changes wall-clock
# time, never output: jobs are enumerated in a fixed order, seeds are derived
# per job position, and merging happens in job order (lib/harness/campaign.ml).
# This script asserts byte-equality of a small campaign across worker counts,
# checks the campaign passes at all, and — when odoc is installed — builds the
# API docs so doc-comment rot fails fast.
#
# Usage: tools/check_campaign.sh
set -eu
cd "$(dirname "$0")/.."

dune build

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

echo "== campaign determinism: -c all --seeds 2 under -j 1/2/4 =="
for j in 1 2 4; do
  dune exec bin/xguard_cli.exe -- campaign -c all --seeds 2 -j "$j" \
    > "$out/campaign_j$j.txt"
done
for j in 2 4; do
  if ! diff -u "$out/campaign_j1.txt" "$out/campaign_j$j.txt"; then
    echo "FAIL: campaign output differs between -j 1 and -j $j" >&2
    exit 1
  fi
done
echo "byte-identical across -j 1/2/4"
tail -n 2 "$out/campaign_j1.txt"
if ! grep -q '^PASS$' "$out/campaign_j1.txt"; then
  echo "FAIL: campaign reported failures" >&2
  exit 1
fi

echo "== topology campaign determinism: N=3 mixed topology under -j 1/2/4 =="
topo='hammer:shards=2;gpu0=trans,cached;nic0=full,uncached,lat=12;dsp0=trans,2lvl,cores=2'
for j in 1 2 4; do
  dune exec bin/xguard_cli.exe -- campaign --topology "$topo" --seeds 4 -j "$j" \
    > "$out/topo_j$j.txt"
done
for j in 2 4; do
  if ! diff -u "$out/topo_j1.txt" "$out/topo_j$j.txt"; then
    echo "FAIL: topology campaign output differs between -j 1 and -j $j" >&2
    exit 1
  fi
done
echo "byte-identical across -j 1/2/4"
if ! grep -q '^PASS$' "$out/topo_j1.txt"; then
  echo "FAIL: topology campaign reported failures" >&2
  exit 1
fi

echo "== stress CLI determinism: --seeds 4 under -j 1/3 =="
dune exec bin/xguard_cli.exe -- stress -c mesi/xg-full-1lvl --seeds 4 -j 1 \
  > "$out/stress_j1.txt"
dune exec bin/xguard_cli.exe -- stress -c mesi/xg-full-1lvl --seeds 4 -j 3 \
  > "$out/stress_j3.txt"
diff -u "$out/stress_j1.txt" "$out/stress_j3.txt" || {
  echo "FAIL: stress output differs between -j 1 and -j 3" >&2
  exit 1
}
echo "byte-identical across -j 1/3"

echo "== fuzz CLI determinism: --seeds 4 under -j 1/2 =="
dune exec bin/xguard_cli.exe -- fuzz -c hammer/xg-trans-1lvl --seeds 4 -j 1 \
  > "$out/fuzz_j1.txt"
dune exec bin/xguard_cli.exe -- fuzz -c hammer/xg-trans-1lvl --seeds 4 -j 2 \
  > "$out/fuzz_j2.txt"
diff -u "$out/fuzz_j1.txt" "$out/fuzz_j2.txt" || {
  echo "FAIL: fuzz output differs between -j 1 and -j 2" >&2
  exit 1
}
echo "byte-identical across -j 1/2"

# Every failing seed's trail lands in --trace-out, in seed order: a link
# killed at its 50th message fails all three seeds.
echo "== stress --trace-out keeps every trail =="
if dune exec bin/xguard_cli.exe -- stress -c hammer/xg-trans-1lvl --seeds 3 --ops 100 \
  --fault-script kill:50 --trace-out "$out/trails.txt" > "$out/kill.txt"; then
  echo "FAIL: stress with a killed link passed" >&2
  exit 1
fi
seeds=$(grep '^-- seed ' "$out/trails.txt" | cut -d' ' -f3 | tr '\n' ' ')
if [ "$seeds" != "42 43 44 " ]; then
  echo "FAIL: --trace-out holds trails for seeds '$seeds', expected '42 43 44 '" >&2
  exit 1
fi
echo "3 trails in seed order"

# The container may not carry odoc; the doc build is a smoke test, not a gate,
# when the tool is absent.
echo "== dune build @doc =="
if dune build @doc 2>/dev/null; then
  echo "docs built"
else
  if command -v odoc >/dev/null 2>&1; then
    echo "FAIL: odoc is installed but dune build @doc failed" >&2
    dune build @doc
    exit 1
  fi
  echo "odoc not installed; skipping doc build"
fi

echo "check_campaign: OK"
