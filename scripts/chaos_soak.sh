#!/usr/bin/env bash
# Chaos soak (DESIGN.md §14): the daemon-edge failure domains under one
# roof. Two phases, one verdict:
#
# Phase 1 — ENOSPC round trip. A daemon started with --enospc-window
# has its first journal writes refused: a first burst is rejected
# `journal-degraded`, the watchdog's probe records consume the window,
# and the daemon re-arms. The script waits for `cmd=health` to report
# the journal healthy, and the burst that follows must be accepted and
# settle cleanly; the surviving `kind=probe` record in the journal is
# the proof the degraded -> recovered transition actually happened on
# disk.
#
# Phase 2 — chaos burst. droidsim-load floods a daemon running with
# --io-fault-pct 5 (journal write/sync + socket read/write faults) at
# twice its queue capacity while 20% of submissions deliberately lose
# their own ack and blindly resubmit their dedupe key; mid-backlog the
# daemon is SIGKILLed and restarted on the same journal. The audit:
# zero lost acknowledged jobs, zero duplicated executions, every
# refusal explicit, every digest equal to the jobs=1 reference.
#
# Exits 0 only if both phases pass. Journals land in
# target/chaos-soak/ for CI to archive.
set -euo pipefail

# Injected faults and worker panics are the point; backtraces are noise.
export RUST_BACKTRACE=0

DROIDSIMD=${DROIDSIMD:-target/release/droidsimd}
LOAD=${DROIDSIM_LOAD:-target/release/droidsim-load}
DIR=$(mktemp -d "${TMPDIR:-/tmp}/droidsim-chaos.XXXXXX")
ARCHIVE=${CHAOS_ARCHIVE:-target/chaos-soak}
DAEMON_PID=

cleanup() {
  [ -n "$DAEMON_PID" ] && kill -9 "$DAEMON_PID" 2>/dev/null
  # Keep both journals (and the load transcripts) for postmortems.
  rm -rf "$ARCHIVE" && mkdir -p "$ARCHIVE"
  for phase in enospc chaos; do
    [ -d "$DIR/$phase-journal" ] && cp -r "$DIR/$phase-journal" "$ARCHIVE/$phase-journal"
    [ -f "$DIR/$phase-load.log" ] && cp "$DIR/$phase-load.log" "$ARCHIVE/"
  done
  rm -rf "$DIR"
}
trap cleanup EXIT

count() { # occurrences of $1 in journal $2 (0 if it does not exist yet)
  local n
  n=$(grep -c "$1" "$2/daemon.journal" 2>/dev/null || true)
  echo "${n:-0}"
}

# ---------------------------------------------------------------- phase 1
SOCK="$DIR/enospc.sock"
JOURNAL="$DIR/enospc-journal"

"$DROIDSIMD" --socket "$SOCK" --journal-dir "$JOURNAL" \
  --capacity 8 --workers 2 --tick-ms 10 --enospc-window 3 &
DAEMON_PID=$!
echo "chaos-soak: [enospc] droidsimd pid $DAEMON_PID, first 3 journal writes refused"

# Each step waits on the daemon's own state, never on timing: the
# watchdog re-arms the journal one probe per tick, and a burst arrives
# far faster than that.
enospc_burst() { # one 2x-capacity burst; its transcript is archived
  "$LOAD" --socket "$SOCK" --job fault-matrix --size 24 --rate-pct 0 \
    --clients 2 --distinct 2 --wait-ms 120000 --reconnect-ms 60000 "$@" \
    | tee -a "$DIR/enospc-load.log"
}

# The first burst rides straight into the ENOSPC window: it bounces
# with `rejected reason=journal-degraded` (explicit, never silent — the
# audit tolerates rejections, not silence). No chaos drops here: this
# phase isolates the durability ladder.
if ! burst=$(enospc_burst); then
  echo "$burst"
  echo "chaos-soak: FAIL — [enospc] load audit reported violations" >&2
  exit 1
fi
echo "$burst"
if [[ $burst != *journal-degraded=[1-9]* ]]; then
  echo "chaos-soak: FAIL — [enospc] no journal-degraded rejection: window not exercised" >&2
  exit 1
fi

# Then the watchdog's probes consume the window: wait until the daemon
# says its journal is healthy again.
deadline=$((SECONDS + 60))
health=
until [[ $health == *journal_degraded=false* ]]; do
  if ((SECONDS >= deadline)); then
    echo "chaos-soak: FAIL — [enospc] journal still degraded after 60s" >&2
    exit 1
  fi
  sleep 0.01
  health=$("$LOAD" --socket "$SOCK" --total 0 --no-verify --reconnect-ms 2000 || true)
done

# Recovered: the next burst must land, verify and drain.
if ! landed=$(enospc_burst --shutdown drain); then
  echo "$landed"
  echo "chaos-soak: FAIL — [enospc] load audit reported violations" >&2
  exit 1
fi
echo "$landed"
if ! wait "$DAEMON_PID"; then
  echo "chaos-soak: FAIL — [enospc] droidsimd did not exit cleanly" >&2
  exit 1
fi
DAEMON_PID=

# The round trip must be visible on disk and in the health line: at
# least one probe record survived (the write that re-armed the door),
# at least one job was accepted after recovery, and the daemon's final
# health shows the journal healthy again.
if [ "$(count '^kind=probe' "$JOURNAL")" -lt 1 ]; then
  echo "chaos-soak: FAIL — [enospc] no probe record: degraded window never closed" >&2
  exit 1
fi
if [ "$(count '^kind=accepted ' "$JOURNAL")" -lt 1 ]; then
  echo "chaos-soak: FAIL — [enospc] nothing accepted after recovery" >&2
  exit 1
fi
if [[ $landed != *journal_degraded=false* ]]; then
  echo "chaos-soak: FAIL — [enospc] daemon still degraded at exit" >&2
  exit 1
fi
echo "chaos-soak: [enospc] PASS — degraded -> recovered round trip held"

# ---------------------------------------------------------------- phase 2
SOCK="$DIR/chaos.sock"
JOURNAL="$DIR/chaos-journal"

start_daemon() {
  "$DROIDSIMD" --socket "$SOCK" --journal-dir "$JOURNAL" \
    --capacity 8 --workers 2 --tick-ms 10 --io-fault-pct 5 --seed 50181 &
  DAEMON_PID=$!
}

start_daemon
echo "chaos-soak: [chaos] droidsimd pid $DAEMON_PID, 5% I/O faults armed"

# 2x capacity, 5% worker panics inside the jobs, 20% of submissions
# lose their own ack and blindly resubmit their dedupe key. The
# generous --reconnect-ms rides out both the injected socket resets and
# the kill window below.
"$LOAD" --socket "$SOCK" --job fault-matrix --size 48 --rate-pct 5 \
  --clients 4 --distinct 4 --wait-ms 300000 --reconnect-ms 120000 \
  --chaos-drop-pct 20 --shutdown drain >"$DIR/chaos-load.log" 2>&1 &
LOAD_PID=$!

# Kill once the backlog is mixed: at least one job settled and at least
# one acknowledged job still open. A fast burst can settle in a few
# hundred milliseconds, so the journal is sampled every 10 ms.
mixed=0
deadline=$((SECONDS + 60))
while ((SECONDS < deadline)); do
  if ! kill -0 "$LOAD_PID" 2>/dev/null; then
    break # load finished before a kill window opened
  fi
  settled=$(count '^kind=state ' "$JOURNAL")
  acks=$(count '^kind=accepted ' "$JOURNAL")
  if [ "$settled" -ge 1 ] && [ "$acks" -gt "$settled" ]; then
    mixed=1
    break
  fi
  sleep 0.01
done
if [ "$mixed" -ne 1 ]; then
  echo "chaos-soak: FAIL — [chaos] no mixed backlog within 60s; kill not exercised" >&2
  kill "$LOAD_PID" 2>/dev/null || true
  exit 1
fi

kill -9 "$DAEMON_PID"
wait "$DAEMON_PID" 2>/dev/null || true
echo "chaos-soak: [chaos] SIGKILLed droidsimd mid-backlog ($(count '^kind=accepted ' "$JOURNAL") acked, $(count '^kind=state ' "$JOURNAL") settled)"
start_daemon
echo "chaos-soak: [chaos] restarted droidsimd as pid $DAEMON_PID on the same journal"

if ! wait "$LOAD_PID"; then
  cat "$DIR/chaos-load.log"
  echo "chaos-soak: FAIL — [chaos] load audit reported violations" >&2
  exit 1
fi
cat "$DIR/chaos-load.log"

# droidsim-load's --shutdown drain stops the restarted daemon — unless
# an injected socket-read fault ate the shutdown request itself. Retry
# until the process exits (an extra drain on a draining daemon is a
# no-op).
for _ in $(seq 1 20); do
  kill -0 "$DAEMON_PID" 2>/dev/null || break
  "$LOAD" --socket "$SOCK" --total 0 --no-verify --shutdown drain \
    --reconnect-ms 2000 >/dev/null 2>&1 || true
  sleep 0.5
done
if kill -0 "$DAEMON_PID" 2>/dev/null; then
  echo "chaos-soak: FAIL — [chaos] droidsimd never acted on shutdown" >&2
  exit 1
fi
if ! wait "$DAEMON_PID"; then
  echo "chaos-soak: FAIL — [chaos] restarted droidsimd did not exit cleanly" >&2
  exit 1
fi
DAEMON_PID=
echo "chaos-soak: PASS — ENOSPC round trip + zero lost / zero duplicated jobs under 5% I/O faults, lost acks, and a kill"
