#!/usr/bin/env bash
# Boot smoke for cmd/dropserve: every surface on an ephemeral port, one RDAP,
# WHOIS and /debug/vars request, then SIGTERM. Fails unless the process exits
# 0, flushes its journal and reports no serve error. Run from the repo root.
set -euo pipefail
work=$(mktemp -d)
pid=
trap '[ -n "$pid" ] && kill "$pid" 2>/dev/null; rm -rf "$work"' EXIT

go build -o "$work/dropserve" ./cmd/dropserve
a=127.0.0.1:0
"$work/dropserve" -epp $a -rdap $a -whois $a -scope $a -oracle $a -dns $a -zonefile $a \
	-debug $a -datadir "$work/data" -population 400 >"$work/out" 2>"$work/err" &
pid=$!
for _ in $(seq 100); do
	grep -q 'registry live' "$work/out" && break
	sleep 0.1
done
grep -q 'registry live' "$work/out" || { cat "$work/out" "$work/err"; exit 1; }
addr() { sed -n "s/^$1: *//p" "$work/out"; }

test "$(curl -s -o /dev/null -w '%{http_code}' "http://$(addr RDAP)/help")" = 200
name=$(curl -sf "http://$(addr 'pending-delete list')/pendingdelete?date=$(date -u +%F)" | head -1 | cut -d, -f1)
whois=$(addr WHOIS)
exec 3<>"/dev/tcp/${whois%:*}/${whois##*:}"
printf '%s\r\n' "$name" >&3
grep -q 'Domain Name:' <&3
exec 3<&-
curl -sf "http://$(addr debug)/debug/vars" | python3 -c 'import json, sys; json.load(sys.stdin)'

kill -TERM "$pid"
status=0
wait "$pid" || status=$?
pid=
cat "$work/err"
test "$status" = 0
grep -q 'journal: flushed and closed' "$work/err"
if grep -q 'serve error' "$work/err"; then exit 1; fi
echo "dropserve smoke: PASS"
