#!/usr/bin/env bash
# Daemon soak (DESIGN.md §12): drive `droidsimd` at twice its queue
# capacity with a 5% injected worker-panic rate, SIGKILL the daemon
# while its backlog is mixed (some jobs settled, some acknowledged but
# open), restart it on the same journal, and let `droidsim-load`'s
# audit prove the service contract held:
#
#   * zero lost acknowledged jobs — every accepted id reaches a
#     terminal state, before or after the kill;
#   * every Done digest equals the jobs=1 in-process reference;
#   * every non-accepted submission got an explicit rejection reason.
#
# Exits 0 only if the load generator's audit passes and the restarted
# daemon drains cleanly.
set -euo pipefail

# The 5% injected faults are deliberate panics the supervisor catches;
# their backtraces are pure noise here.
export RUST_BACKTRACE=0

DROIDSIMD=${DROIDSIMD:-target/release/droidsimd}
LOAD=${DROIDSIM_LOAD:-target/release/droidsim-load}
DIR=$(mktemp -d "${TMPDIR:-/tmp}/droidsim-soak.XXXXXX")
SOCK="$DIR/droidsimd.sock"
JOURNAL="$DIR/journal"
ARCHIVE=${SOAK_ARCHIVE:-target/daemon-soak}
DAEMON_PID=

cleanup() {
  [ -n "$DAEMON_PID" ] && kill -9 "$DAEMON_PID" 2>/dev/null
  # Keep the journal for postmortems / CI artifacts.
  if [ -d "$JOURNAL" ]; then
    rm -rf "$ARCHIVE" && mkdir -p "$ARCHIVE" && cp -r "$JOURNAL"/. "$ARCHIVE"/
  fi
  rm -rf "$DIR"
}
trap cleanup EXIT

start_daemon() {
  "$DROIDSIMD" --socket "$SOCK" --journal-dir "$JOURNAL" \
    --capacity 8 --workers 2 --tick-ms 10 &
  DAEMON_PID=$!
}

count() { # occurrences of $1 in the journal (0 if it does not exist yet)
  local n
  n=$(grep -c "$1" "$JOURNAL/daemon.journal" 2>/dev/null || true)
  echo "${n:-0}"
}

start_daemon
echo "daemon-soak: droidsimd pid $DAEMON_PID, socket $SOCK"

# 2x queue capacity (droidsim-load sizes the burst off cmd=health), 5%
# injected fleet-task panics inside every job, digests verified against
# the jobs=1 reference, and a drain shutdown once the audit is done.
# The generous --reconnect-ms is what rides out the kill window below.
"$LOAD" --socket "$SOCK" --job fault-matrix --size 48 --rate-pct 5 \
  --clients 4 --distinct 4 --wait-ms 300000 --reconnect-ms 120000 \
  --shutdown drain &
LOAD_PID=$!

# Kill once the backlog is mixed: at least one job settled (a state
# record is journaled) and at least one acknowledged job still open.
# The journal is append-only line text, so grep is a safe probe. A fast
# burst can settle in a few hundred milliseconds, so it is sampled every
# 10 ms.
mixed=0
deadline=$((SECONDS + 60))
while ((SECONDS < deadline)); do
  if ! kill -0 "$LOAD_PID" 2>/dev/null; then
    break # load finished before a kill window opened
  fi
  settled=$(count '^kind=state ')
  acks=$(count '^kind=accepted ')
  if [ "$settled" -ge 1 ] && [ "$acks" -gt "$settled" ]; then
    mixed=1
    break
  fi
  sleep 0.01
done
if [ "$mixed" -ne 1 ]; then
  echo "daemon-soak: FAIL — no mixed backlog within 60s; kill not exercised" >&2
  kill "$LOAD_PID" 2>/dev/null || true
  exit 1
fi

kill -9 "$DAEMON_PID"
wait "$DAEMON_PID" 2>/dev/null || true
echo "daemon-soak: SIGKILLed droidsimd mid-backlog ($(count '^kind=accepted ') acked, $(count '^kind=state ') settled)"
start_daemon
echo "daemon-soak: restarted droidsimd as pid $DAEMON_PID on the same journal"

if ! wait "$LOAD_PID"; then
  echo "daemon-soak: FAIL — load audit reported violations" >&2
  exit 1
fi

# droidsim-load's --shutdown drain stops the restarted daemon; it must
# exit 0 of its own accord.
if ! wait "$DAEMON_PID"; then
  echo "daemon-soak: FAIL — restarted droidsimd did not exit cleanly" >&2
  exit 1
fi
DAEMON_PID=
echo "daemon-soak: PASS — zero lost acknowledged jobs, digests clean across kill/restart"
