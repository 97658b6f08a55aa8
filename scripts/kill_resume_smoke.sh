#!/usr/bin/env bash
# Kill/resume smoke: SIGKILL a checkpointed `gentrius stand` run mid-
# flight, resume it from the .standckpt sidecar until the enumeration
# completes, and require the stitched container to hold exactly the same
# stand set as an uninterrupted run. This is the cross-process durability
# gate — the in-process differential lives in tests/checkpoint_resume.rs.
#
# Usage: scripts/kill_resume_smoke.sh [BINARY]
#   BINARY defaults to target/release/gentrius (built if missing).
set -euo pipefail

BIN="${1:-target/release/gentrius}"
if [[ ! -x "$BIN" ]]; then
  echo "building $BIN"
  cargo build --release -p gentrius-cli
fi

WORK="$(mktemp -d "${TMPDIR:-/tmp}/gentrius-kill-smoke.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT

# A blow-up instance: ~900k stand trees (under the default 1M cap), about
# a second of release work on a 2-vCPU host — room for a 100 ms
# checkpoint cadence to fire several times before the SIGKILL lands at
# 40% of the clean run.
cat > "$WORK/trees.nwk" <<'EOF'
((A,B),(C,D));
((A,E),(F,G));
((C,F),(H,I));
((B,H),(J,K));
((D,G),(I,K));
((A,J),(E,L));
EOF

echo "== clean reference run =="
started=$(date +%s%N)
"$BIN" stand --trees "$WORK/trees.nwk" --threads 2 --output "$WORK/clean.stand"
clean_ms=$(( ($(date +%s%N) - started) / 1000000 ))
# Kill at about 40% of the clean run's wall time: a fixed delay outlives
# the run once the engine gets faster, and then no step below would run.
kill_ms=$(( clean_ms * 4 / 10 ))
echo "clean run took ${clean_ms} ms; the kill lands at ${kill_ms} ms"

echo "== checkpointed run, SIGKILL mid-flight =="
"$BIN" stand --trees "$WORK/trees.nwk" --threads 2 \
  --output "$WORK/kill.stand" --checkpoint-every 0.1 &
PID=$!
sleep "$(printf '%d.%03d' $((kill_ms / 1000)) $((kill_ms % 1000)))"
if ! kill -9 "$PID" 2>/dev/null; then
  echo "FAIL: the run finished before the kill landed at ${kill_ms} ms" >&2
  exit 1
fi
echo "sent SIGKILL to $PID"
wait "$PID" || true

CKPT="$WORK/kill.standckpt"
if [[ ! -f "$CKPT" ]]; then
  echo "FAIL: no sidecar when the kill landed at ${kill_ms} ms" \
    "(clean run ${clean_ms} ms, 100 ms cadence)" >&2
  exit 1
fi

# The final merge is a commit point: a torn segment must fail it without
# costing any segment the sidecar names, so a retry loses nothing. With
# --threads 2 a segment's context index is one digit; the byte after a
# name in the sidecar is a length prefix and may read as a digit too.
mapfile -t SEGS < <(grep -aoE 'kill\.stand\.g[0-9]+\.seg[0-9]' "$CKPT")
if (( ${#SEGS[@]} > 0 )); then
  echo "== torn segment: resume must fail and keep all ${#SEGS[@]} segments =="
  TORN="$WORK/${SEGS[-1]}"
  cp "$TORN" "$WORK/torn.bak"
  truncate -s -10 "$TORN"
  rc=0
  "$BIN" stand resume "$CKPT" --threads 2 || rc=$?
  if (( rc != 1 )); then
    echo "FAIL: resume over a torn segment exited $rc, not 1" >&2
    exit 1
  fi
  for seg in "${SEGS[@]}"; do
    if [[ ! -f "$WORK/$seg" ]]; then
      echo "FAIL: the failed merge deleted $seg" >&2
      exit 1
    fi
  done
  mv "$WORK/torn.bak" "$TORN"
fi
echo "== resuming from $CKPT =="
slices=0
while [[ -f "$CKPT" ]]; do
  slices=$((slices + 1))
  if (( slices > 50 )); then
    echo "FAIL: resume did not converge after $slices slices" >&2
    exit 1
  fi
  "$BIN" stand resume "$CKPT" --threads 2
done
echo "resume converged after $slices slice(s)"

echo "== comparing stand sets =="
"$BIN" stand cat "$WORK/clean.stand" | sort > "$WORK/clean.txt"
"$BIN" stand cat "$WORK/kill.stand" | sort > "$WORK/kill.txt"
if ! cmp -s "$WORK/clean.txt" "$WORK/kill.txt"; then
  echo "FAIL: resumed stand set diverges from the clean run" >&2
  diff "$WORK/clean.txt" "$WORK/kill.txt" | head -20 >&2
  exit 1
fi

leftovers="$(find "$WORK" -name 'kill.stand.*seg*' -o -name '*.standckpt*' | wc -l)"
if (( leftovers != 0 )); then
  echo "FAIL: $leftovers sidecar file(s) survived completion" >&2
  find "$WORK" -name 'kill.stand.*seg*' -o -name '*.standckpt*' >&2
  exit 1
fi

echo "PASS: $(wc -l < "$WORK/clean.txt") trees, byte-identical after kill/resume"
