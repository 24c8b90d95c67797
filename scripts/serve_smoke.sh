#!/usr/bin/env bash
# Serve smoke: boot `odrc serve` on a generated design, drive the whole verb
# set through `odrc client`, and require the incremental path (recheck with
# full=0) plus per-request spans in the --trace output. An M2-only edit must
# rerun fewer plans than the deck has rules. A V1 via moved half off its M1
# finger must recheck incrementally to exactly the key set of a fresh check
# (the derived-area rule V1.M1.OV included). A final phase boots
# an `odrc coord` fleet and requires the scatter-gathered check to match the
# single-process total, and the same via edit to recheck exactly on the fleet.
# Before it, an array phase moves an M1 finger of FILLERx1 on a small aes
# (filler runs and the cell block are AREFs) and requires a per-placement
# incremental recheck that matches a fresh check.
#
# Usage: scripts/serve_smoke.sh <build-dir>
set -euo pipefail

build_dir=${1:?usage: serve_smoke.sh <build-dir>}
odrc="$build_dir/tools/odrc"
work=$(mktemp -d)
sock="$work/odrc.sock"
trap 'kill $srv_pid 2>/dev/null || true; rm -rf "$work"' EXIT

"$odrc" generate uart "$work/design.gds" --scale=0.5 --inject=2
"$odrc" deck-template > "$work/rules.deck"

"$odrc" serve "$work/design.gds" "$work/rules.deck" --socket="$sock" --workers=2 \
  --trace="$work/trace.json" > "$work/serve.log" 2>&1 &
srv_pid=$!

for _ in $(seq 1 100); do
  [[ -S "$sock" ]] && break
  kill -0 $srv_pid 2>/dev/null || { echo "server died:"; cat "$work/serve.log"; exit 1; }
  sleep 0.1
done
[[ -S "$sock" ]] || { echo "socket never appeared"; cat "$work/serve.log"; exit 1; }

cli() { "$odrc" client --socket="$sock" "$@"; }

cli ping | grep -q "ok pong"
cli check | tee "$work/check.out" | head -1 | grep -q "^ok total"

top=$("$odrc" inspect "$work/design.gds" | sed -n 's/^top cell: //p' | head -1)
printf 'add_poly %s 19 900000 900000 900010 900010\n' "$top" > "$work/edit.txt"
cli edit "$work/edit.txt" | grep -q "^ok applied 1"

recheck_out=$(cli recheck)
echo "$recheck_out"
grep -q "full 0" <<<"$recheck_out" || { echo "FAIL: recheck was not incremental"; exit 1; }
grep -Eq "new [1-9]" <<<"$recheck_out" || { echo "FAIL: edit introduced no violations"; exit 1; }

cli diff | head -1 | grep -q "^ok fixed 0 new"

# An M2-only edit reruns only the rules that read M2: its recheck must stay
# incremental and report fewer plan runs than the deck has rules. The via
# recheck below compares the whole store, this edit included, with a fresh
# check.
printf 'add_poly %s 20 920000 920000 920010 920010\n' "$top" > "$work/m2.txt"
cli edit "$work/m2.txt" | grep -q "^ok applied 1"
m2_out=$(cli recheck)
echo "$m2_out"
grep -q "full 0" <<<"$m2_out" || { echo "FAIL: M2 recheck was not incremental"; exit 1; }
deck_rules=$(grep -c '^rule ' "$work/rules.deck")
m2_plans=$(sed -n 's/.* plans \([0-9]*\).*/\1/p' <<<"$m2_out")
[[ -n "$m2_plans" && "$m2_plans" -lt "$deck_rules" ]] \
  || { echo "FAIL: M2 recheck ran ${m2_plans:-?} plans, deck has $deck_rules rules"; exit 1; }

# Move the first V1 via of INVx1 (a master: every placement changes) half off
# its 18 nm M1 finger: the overlap drops to 32 < 64 and V1.M1.EN.1 fires too.
# The recheck must stay incremental and leave exactly the key set of a fresh
# full check in the store.
printf 'move_poly INVx1 21 0 9 0\n' > "$work/via.txt"
die="-1000000000 -1000000000 1000000000 1000000000"
via_recheck() {  # <client-fn> <label>
  "$1" edit "$work/via.txt" | grep -q "^ok applied 1"
  local out
  out=$("$1" recheck)
  echo "$out"
  grep -q "full 0" <<<"$out" || { echo "FAIL: $2 via recheck was not incremental"; exit 1; }
  grep -Eq "new [1-9]" <<<"$out" || { echo "FAIL: $2 via edit introduced no violations"; exit 1; }
  # shellcheck disable=SC2086
  "$1" query $die keys | grep '^v ' | sort > "$work/stored_$2.txt"
  "$1" check keys | grep '^v ' | sort > "$work/fresh_$2.txt"
  grep -q "^v V1.M1.OV|" "$work/fresh_$2.txt" || { echo "FAIL: $2 via edit left V1.M1.OV clean"; exit 1; }
  diff -q "$work/stored_$2.txt" "$work/fresh_$2.txt" > /dev/null \
    || { echo "FAIL: $2 stored keys after the via recheck != fresh check"; diff "$work/stored_$2.txt" "$work/fresh_$2.txt" | head; exit 1; }
}
via_recheck cli single

# ---------------------------------------------------------------------------
# Subscription phase (DESIGN.md §12): a background subscriber must receive
# the next recheck's key diff as a server-pushed delta frame, and the query
# verb must find the fresh marker among the stored violations.
# ---------------------------------------------------------------------------
"$odrc" client --socket="$sock" subscribe --count=1 --timeout=20000 > "$work/sub.out" &
sub_pid=$!
for _ in $(seq 1 100); do
  grep -q "^ok subscribed" "$work/sub.out" 2>/dev/null && break
  kill -0 $sub_pid 2>/dev/null || break
  sleep 0.1
done
grep -q "^ok subscribed" "$work/sub.out" || { echo "FAIL: subscribe not acknowledged"; cat "$work/sub.out"; exit 1; }

printf 'add_poly %s 19 910000 910000 910010 910010\n' "$top" > "$work/edit2.txt"
cli edit "$work/edit2.txt" | grep -q "^ok applied 1"
cli recheck | grep -q "full 0"
wait $sub_pid || { echo "FAIL: subscriber got no delta"; cat "$work/sub.out"; exit 1; }
grep -Eq "^delta sub [0-9]+ seq 0 fixed 0 new [1-9][0-9]* gap 0" "$work/sub.out" \
  || { echo "FAIL: pushed delta missing or empty"; cat "$work/sub.out"; exit 1; }
grep -q "^new " "$work/sub.out" || { echo "FAIL: delta carried no key lines"; cat "$work/sub.out"; exit 1; }

cli query 909990 909990 910020 910020 keys | head -1 | grep -Eq "^ok total [1-9]" \
  || { echo "FAIL: query missed the fresh marker"; exit 1; }
cli query 5000000 5000000 5000010 5000010 | head -1 | grep -q "^ok total 0" \
  || { echo "FAIL: query reported phantom hits"; exit 1; }

# The flusher counts a delta as delivered only after its write returns, and
# the subscriber may read the delta and exit first: poll stats for up to 5 s.
for _ in $(seq 1 50); do
  stats_out=$(cli stats)
  grep -Eq "subs_delivered [1-9]" <<<"$stats_out" && break
  sleep 0.1
done
grep -q "requests_total" <<<"$stats_out"
grep -Eq "subs_published [1-9]" <<<"$stats_out" || { echo "FAIL: no published deltas in stats"; exit 1; }
grep -Eq "subs_delivered [1-9]" <<<"$stats_out" || { echo "FAIL: no delivered deltas in stats"; exit 1; }

cli shutdown | grep -q "ok shutting down"
wait $srv_pid

# Serve spans must be visible in the trace (per-request observability).
grep -q '"serve"' "$work/trace.json" || { echo "FAIL: no serve spans in trace"; exit 1; }
grep -q '"request"' "$work/trace.json" || { echo "FAIL: no request spans in trace"; exit 1; }
grep -q '"push"' "$work/trace.json" || { echo "FAIL: no push spans in trace"; exit 1; }

# A cold boot must say so in the trace (the mmap phase below asserts the
# inverse: snapshot_boot present, cold_build absent).
grep -q '"cold_build"' "$work/trace.json" || { echo "FAIL: no cold_build span in cold trace"; exit 1; }

# ---------------------------------------------------------------------------
# Frozen-snapshot phase (DESIGN.md §9): build a .snap, boot the server from
# the mapping, edit + recheck against the copy-on-write overlay, then
# hot-swap a second snapshot version into the live session.
# ---------------------------------------------------------------------------
sock2="$work/odrc2.sock"

"$odrc" snapshot build "$work/design.gds" "$work/design.snap" | grep -q "^wrote"
"$odrc" snapshot info "$work/design.snap" | grep -q "snapshot version 1"

"$odrc" serve "$work/design.gds" "$work/rules.deck" --socket="$sock2" --workers=2 \
  --snapshot="$work/design.snap" --trace="$work/trace2.json" > "$work/serve2.log" 2>&1 &
srv_pid=$!

for _ in $(seq 1 100); do
  [[ -S "$sock2" ]] && break
  kill -0 $srv_pid 2>/dev/null || { echo "snapshot server died:"; cat "$work/serve2.log"; exit 1; }
  sleep 0.1
done
[[ -S "$sock2" ]] || { echo "snapshot socket never appeared"; cat "$work/serve2.log"; exit 1; }
grep -q "^booted" "$work/serve2.log" || { echo "FAIL: server did not boot from the snapshot"; cat "$work/serve2.log"; exit 1; }

cli2() { "$odrc" client --socket="$sock2" "$@"; }

# The mapped boot must report the same total as the cold server's full check.
cold_total=$(head -1 "$work/check.out")
cli2 check | head -1 | grep -qx "$cold_total" || { echo "FAIL: snapshot boot check != cold check"; exit 1; }

# Edit + incremental recheck over the copy-on-write overlay.
cli2 edit "$work/edit.txt" | grep -q "^ok applied 1"
recheck2=$(cli2 recheck)
grep -q "full 0" <<<"$recheck2" || { echo "FAIL: frozen recheck was not incremental"; exit 1; }
grep -Eq "new [1-9]" <<<"$recheck2" || { echo "FAIL: frozen edit introduced no violations"; exit 1; }

# Hot-swap: a second snapshot version flips the live session back to the
# pristine layout — the overlay edit is gone, the check total matches cold.
"$odrc" snapshot build "$work/design.gds" "$work/design_v2.snap" > /dev/null
cli2 reload "$work/design_v2.snap" | grep -q "^ok reloaded bytes" || { echo "FAIL: reload refused"; exit 1; }
cli2 check | head -1 | grep -qx "$cold_total" || { echo "FAIL: post-swap check != pristine check"; exit 1; }

cli2 shutdown | grep -q "ok shutting down"
wait $srv_pid

# The mmap boot must be visible in the trace — and the cold rebuild absent.
grep -q '"snapshot_boot"' "$work/trace2.json" || { echo "FAIL: no snapshot_boot span in trace"; exit 1; }
grep -q '"cold_build"' "$work/trace2.json" && { echo "FAIL: snapshot boot still ran a cold build"; exit 1; }
grep -q '"hot_swap"' "$work/trace2.json" || { echo "FAIL: no hot_swap span in trace"; exit 1; }
grep -q '"mapped_bytes"' "$work/trace2.json" || { echo "FAIL: no mapped_bytes counter in trace"; exit 1; }

# ---------------------------------------------------------------------------
# Array-master phase (DESIGN.md §8): on a small aes, whose standard cells sit
# in an AREF'd block and whose filler runs are AREFs, move an M1 finger of
# FILLERx1. The recheck must stay incremental, run one dirty rect per
# placement (windows > 1), and leave exactly a fresh check's key set.
# ---------------------------------------------------------------------------
sock_arr="$work/odrc_arr.sock"
"$odrc" generate aes "$work/aes.gds" --scale=0.3 --inject=2 > /dev/null
"$odrc" serve "$work/aes.gds" "$work/rules.deck" --socket="$sock_arr" --workers=2 \
  > "$work/serve_arr.log" 2>&1 &
srv_pid=$!
for _ in $(seq 1 100); do
  [[ -S "$sock_arr" ]] && break
  kill -0 $srv_pid 2>/dev/null || { echo "array server died:"; cat "$work/serve_arr.log"; exit 1; }
  sleep 0.1
done
[[ -S "$sock_arr" ]] || { echo "array socket never appeared"; cat "$work/serve_arr.log"; exit 1; }
cli_arr() { "$odrc" client --socket="$sock_arr" "$@"; }
cli_arr check | head -1 | grep -q "^ok total"
printf 'move_poly FILLERx1 19 0 4 0\n' > "$work/master.txt"
cli_arr edit "$work/master.txt" | grep -q "^ok applied 1"
arr_out=$(cli_arr recheck)
echo "$arr_out"
grep -q "full 0" <<<"$arr_out" || { echo "FAIL: array master recheck was not incremental"; exit 1; }
arr_windows=$(sed -n 's/.* windows \([0-9]*\).*/\1/p' <<<"$arr_out")
[[ -n "$arr_windows" && "$arr_windows" -gt 1 ]] \
  || { echo "FAIL: array master recheck ran ${arr_windows:-?} windows, want one per placement"; exit 1; }
# shellcheck disable=SC2086
cli_arr query $die keys | grep '^v ' | sort > "$work/stored_arr.txt"
cli_arr check keys | grep '^v ' | sort > "$work/fresh_arr.txt"
diff -q "$work/stored_arr.txt" "$work/fresh_arr.txt" > /dev/null \
  || { echo "FAIL: stored keys after the array master recheck != fresh check"; diff "$work/stored_arr.txt" "$work/fresh_arr.txt" | head; exit 1; }
cli_arr shutdown | grep -q "ok shutting down"
wait $srv_pid

# ---------------------------------------------------------------------------
# Cluster phase (DESIGN.md §10): `odrc coord` spawns a band-sharded worker
# fleet — every worker mmap-boots the SAME .snap, one physical snapshot copy
# — and the scatter-gathered check must reconcile to exactly the
# single-process total (seam straddlers deduplicated, none dropped). After
# shutdown the workers' temp socket directory must be gone.
# ---------------------------------------------------------------------------
csock="$work/coord.sock"

"$odrc" coord "$work/design.gds" "$work/rules.deck" --socket="$csock" --shards=2 \
  --snapshot="$work/design.snap" > "$work/coord.log" 2>&1 &
srv_pid=$!

for _ in $(seq 1 300); do
  [[ -S "$csock" ]] && break
  kill -0 $srv_pid 2>/dev/null || { echo "coordinator died:"; cat "$work/coord.log"; exit 1; }
  sleep 0.1
done
[[ -S "$csock" ]] || { echo "coordinator socket never appeared"; cat "$work/coord.log"; exit 1; }

cli3() { "$odrc" client --socket="$csock" "$@"; }

cli3 ping | grep -q "ok pong"
cli3 check | head -1 | grep -qx "$cold_total" || { echo "FAIL: sharded check != single-process check"; exit 1; }
cli3 check_region 0 0 200000 200000 | head -1 | grep -q "^ok total" || { echo "FAIL: scatter check_region"; exit 1; }
via_recheck cli3 coord

stats_out=$(cli3 stats)
grep -q "^shard 0 " <<<"$stats_out" || { echo "FAIL: no shard 0 line in coord stats"; exit 1; }
grep -q "^shard 1 " <<<"$stats_out" || { echo "FAIL: no shard 1 line in coord stats"; exit 1; }
grep -Eq "^shard 0 .*legs [1-9]" <<<"$stats_out" || { echo "FAIL: shard 0 served no scatter legs"; exit 1; }

cli3 shutdown | grep -q "ok shutting down"
wait $srv_pid
grep -q "coordinating 2 shard" "$work/coord.log" || { echo "FAIL: coordinator did not run 2 shards"; cat "$work/coord.log"; exit 1; }
# The spawned workers' socket directory goes away with the coordinator.
coord_dir=$(sed -n 's|^ *shard 0 -> \(.*\)/worker0\.sock .*|\1|p' "$work/coord.log")
[[ -n "$coord_dir" ]] || { echo "FAIL: no shard 0 socket line in coord.log"; cat "$work/coord.log"; exit 1; }
[[ ! -e "$coord_dir" ]] || { echo "FAIL: coordinator left $coord_dir behind"; exit 1; }

# Under a sanitizer build a forked worker's report lands in coord.log
# without failing any request; no server log may carry one.
if grep -l "Sanitizer\|runtime error:" "$work"/*.log; then
  echo "FAIL: sanitizer report in a server log"; cat "$work"/*.log; exit 1
fi

echo "serve smoke OK"
