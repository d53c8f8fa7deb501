#!/usr/bin/env bash
# Boot smoke for cmd/dropserve: a primary with every surface (replication
# included) on an ephemeral port, one RDAP, WHOIS, zone-file and /debug/vars
# request; a replica of it that must serve the same RDAP bytes, resume from
# its own log after a restart, promote on SIGUSR1 and then serve the
# primary's feed; then SIGTERM to both. Fails unless each exits 0, flushes
# its journal (none before promotion) and reports no serve error, or if
# -sync-followers under async durability or a replica under -durability off
# is accepted. Run from the repo root.
set -euo pipefail
work=$(mktemp -d)
pids=()
trap 'for p in "${pids[@]}"; do kill "$p" 2>/dev/null || true; done; rm -rf "$work"' EXIT

go build -o "$work/dropserve" ./cmd/dropserve
a=127.0.0.1:0
surfaces=(-epp $a -rdap $a -whois $a -scope $a -oracle $a -zonefile $a -debug $a)

# start NAME ARGS...: run dropserve as NAME and wait for its banner.
start() {
	local name=$1
	shift
	"$work/dropserve" "${surfaces[@]}" "$@" >"$work/$name.out" 2>"$work/$name.err" &
	pids+=($!)
	for _ in $(seq 100); do
		grep -q 'registry live' "$work/$name.out" && return
		sleep 0.1
	done
	cat "$work/$name.out" "$work/$name.err"
	exit 1
}
addr() { sed -n "s/^$2: *//p" "$work/$1.out"; }

# keys NAME KEY...: /debug/vars' dropserve document has every KEY at top level.
keys() {
	local name=$1
	shift
	curl -sf "http://$(addr "$name" debug)/debug/vars" | python3 -c '
import json, sys
doc = json.load(sys.stdin)["dropserve"]
missing = [k for k in sys.argv[1:] if k not in doc]
if missing:
    sys.exit("dropserve document lacks %s (has %s)" % (missing, sorted(doc)))
' "$@"
}

# stop NAME PID [unpromoted]: SIGTERM, then exit 0, no serve error and a
# flushed journal — or, for an unpromoted replica, which holds none, no
# journal line at all.
stop() {
	kill -TERM "$2"
	local status=0
	wait "$2" || status=$?
	cat "$work/$1.err"
	test "$status" = 0
	if [ "${3:-}" = unpromoted ]; then
		if grep -q 'journal: flushed and closed' "$work/$1.err"; then exit 1; fi
	else
		grep -q 'journal: flushed and closed' "$work/$1.err"
	fi
	if grep -q 'serve error' "$work/$1.err"; then exit 1; fi
}

start primary -datadir "$work/primary" -population 400 -listen-replication $a
primary=${pids[-1]}
test "$(curl -s -o /dev/null -w '%{http_code}' "http://$(addr primary RDAP)/help")" = 200
name=$(curl -sf "http://$(addr primary 'pending-delete list')/pendingdelete?date=$(date -u +%F)" | head -1 | cut -d, -f1)
whois=$(addr primary WHOIS)
exec 3<>"/dev/tcp/${whois%:*}/${whois##*:}"
printf '%s\r\n' "$name" >&3
grep -q 'Domain Name:' <&3
exec 3<&-
test "$(curl -s -o "$work/zone" -w '%{http_code}' "http://$(addr primary 'zone files')/zone?tld=com")" = 200
grep -q ' IN NS ' "$work/zone"
keys primary store epp rdap whois scope feed journal

body() { curl -sf "http://$(addr "$1" RDAP)/domain/$name"; }
# start_replica: start the replica and wait until it serves the primary's body.
start_replica() {
	start replica -datadir "$work/replica" -replicate-from "$(addr primary replication)"
	replica=${pids[-1]}
	for _ in $(seq 100); do
		[ "$(body replica || true)" = "$(body primary)" ] && break
		sleep 0.1
	done
	test "$(body replica)" = "$(body primary)"
}
start_replica
keys replica store epp rdap whois scope repl_follower
# A restarted replica resumes from its own log, not from nothing.
stop replica "$replica" unpromoted
start_replica
recovered=$(sed -n 's/.*follower recovered to seq \([0-9]*\).*/\1/p' "$work/replica.err")
test "${recovered:-0}" -gt 0
kill -USR1 "$replica"
for _ in $(seq 100); do
	grep -q 'promoted to primary at seq' "$work/replica.err" && break
	sleep 0.1
done
grep -q 'promoted to primary at seq' "$work/replica.err"
# A promoted replica serves what a primary serves: the feed and a journal.
keys replica store epp rdap whois scope feed journal repl_follower
full() { curl -sf "http://$(addr "$1" 'pending-delete list')/deltas/full"; }
test -n "$(full primary)"
test "$(full replica)" = "$(full primary)"

stop replica "$replica"
stop primary "$primary"

# refused WHAT PATTERN ARGS...: dropserve ARGS exits non-zero at once (one that
# starts serving instead is stopped by timeout: 124) naming PATTERN.
refused() {
	local status=0
	timeout 10 "$work/dropserve" "${surfaces[@]}" "${@:3}" >"$work/refused.out" 2>&1 || status=$?
	if [ "$status" = 0 ] || [ "$status" = 124 ]; then
		echo "$1 accepted (exit $status)"
		exit 1
	fi
	grep -q -- "$2" "$work/refused.out"
}
# Semi-sync under async durability would ack without waiting; a replica
# without a writing journal mode could never be promoted.
refused "-sync-followers under -durability async" '-durability sync' \
	-datadir "$work/refused" -listen-replication $a -sync-followers 1
refused "-replicate-from under -durability off" '-durability' \
	-datadir "$work/refused" -durability off -replicate-from "$(addr primary replication)"
echo "dropserve smoke: PASS"
