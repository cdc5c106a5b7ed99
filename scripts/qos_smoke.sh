#!/bin/sh
# qos-smoke: boot vcodecd with a fast, tight QoS control loop, byte-verify
# the degradation ladder through pinned sessions, push an adaptive
# mixed-priority burst past the admission cap so the controller degrades
# instead of truncating streams, require quality restored to level 0
# afterwards, then SIGTERM and require a clean drain.
# Expects the vcodecd and vload binaries in $BIN (default ./bin).
set -eu

BIN=${BIN:-bin}
tmp=$(mktemp -d)
pid=""
cleanup() {
	[ -n "$pid" ] && kill "$pid" 2>/dev/null || true
	rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

# A 2-session cap with a deliberately unmeetable 5ms frame target: any
# real burst overloads the loop, so the smoke exercises degradation on a
# clip short enough for CI.
"$BIN/vcodecd" -addr 127.0.0.1:0 -addrfile "$tmp/addr" -max-sessions 2 \
	-qos-interval 25ms -qos-target-ms 5 &
pid=$!

i=0
while [ ! -s "$tmp/addr" ]; do
	i=$((i + 1))
	if [ "$i" -gt 100 ]; then
		echo "qos-smoke: vcodecd never wrote its address" >&2
		exit 1
	fi
	sleep 0.1
done
addr=$(cat "$tmp/addr")
echo "qos-smoke: daemon on $addr"

# Pinned rungs: a session pinned at level N must stream byte-for-byte what
# the offline encoder produces at that level, controller notwithstanding.
# Level 1 is the dial-only rung the controller reaches first.
for level in 0 1 2 3; do
	"$BIN/vload" -url "http://$addr" -sessions 1 -frames 6 -size sqcif \
		-qoslevel "$level" -verify
done

# Adaptive overload: 4 mixed-priority sessions against the 2-session cap.
# The queue absorbs the overflow (no 503s), the controller degrades
# instead of letting anyone truncate (vload fails on a short stream), and
# the verified session — pinned at level 0 by vload — must still match
# the offline encoder while its neighbors degrade.
"$BIN/vload" -url "http://$addr" -sessions 4 -frames 12 -size sqcif \
	-priority mixed -verify

# The burst is over; restore hysteresis must hand full quality back.
i=0
until curl -sf "http://$addr/healthz" | grep -q '"qos_level":0'; do
	i=$((i + 1))
	if [ "$i" -gt 200 ]; then
		echo "qos-smoke: controller never restored to level 0" >&2
		exit 1
	fi
	sleep 0.1
done
echo "qos-smoke: restored to level 0"

# Graceful shutdown: SIGTERM must drain and exit 0.
kill -TERM "$pid"
if wait "$pid"; then
	pid=""
	echo "qos-smoke: clean shutdown"
else
	rc=$?
	pid=""
	echo "qos-smoke: vcodecd exited with status $rc" >&2
	exit 1
fi
