#!/usr/bin/env bash
# End-to-end smoke test for cmd/serve, run by `make serve-smoke` and CI.
#
# Boots the server on an ephemeral port with a small preloaded family
# ontology, then exercises the three request shapes that matter:
#   1. a read over the published snapshot,
#   2. a write, one mutation per request (and a re-read that must see it),
#   3. a 1ms-deadline chase query against a deliberately large second
#      ontology, which must come back 504 without corrupting anything,
#   4. a streamed NDJSON read (rows flushed as produced, trailing count) and
#      a ?limit=1 request against the 400-link chain that returns its one
#      answer well inside a deadline the full materialization would blow,
# and finally SIGTERMs the server and requires a clean in-flight drain.
set -euo pipefail

cd "$(dirname "$0")/.."
workdir=$(mktemp -d)
pid=""
cleanup() {
  [ -n "$pid" ] && kill "$pid" 2>/dev/null
  rm -rf "$workdir"
}
trap cleanup EXIT

cat > "$workdir/fam.rules" <<'EOF'
parent(X, Y) -> ancestor(X, Y) .
parent(X, Y), ancestor(Y, Z) -> ancestor(X, Z) .
parent(ada, bob) .
parent(bob, cyd) .
EOF

# A 400-link parent chain: its transitive ancestor materialization is ~80k
# facts over ~400 chase rounds, far past any 1ms deadline.
{
  echo 'parent(X, Y) -> ancestor(X, Y) .'
  echo 'parent(X, Y), ancestor(Y, Z) -> ancestor(X, Z) .'
  for i in $(seq 0 399); do echo "parent(c$i, c$((i + 1))) ."; done
} > "$workdir/big.rules"

go build -o "$workdir/serve" ./cmd/serve
"$workdir/serve" -addr 127.0.0.1:0 -rules "$workdir/fam.rules" 2> "$workdir/serve.log" &
pid=$!

addr=""
for _ in $(seq 1 100); do
  addr=$(sed -n 's/^serving on \(.*\)$/\1/p' "$workdir/serve.log" | head -1)
  [ -n "$addr" ] && break
  sleep 0.1
done
if [ -z "$addr" ]; then
  echo "server never reported its address" >&2
  cat "$workdir/serve.log" >&2
  exit 1
fi
base="http://$addr/v1/ontologies"

curl --fail -sS "http://$addr/healthz" > /dev/null

# 1. Read over the published snapshot.
ans=$(curl --fail -sS -X POST "$base/default/query" \
  -d '{"query": "q(X, Y) :- ancestor(X, Y) ."}')
echo "read: $ans"
grep -q '"count":3' <<<"$ans" || { echo "expected 3 ancestors, got: $ans" >&2; exit 1; }

# 2. Write, then a read that must see the newly derived facts.
curl --fail -sS -X POST "$base/default/facts" \
  -d '{"facts": "parent(cyd, dan) ."}' > /dev/null
ans=$(curl --fail -sS -X POST "$base/default/query" \
  -d '{"query": "q(X, Y) :- ancestor(X, Y) ."}')
echo "read after write: $ans"
grep -q '"count":6' <<<"$ans" || { echo "expected 6 ancestors after write, got: $ans" >&2; exit 1; }

# 3. Deadline-cancelled request: 1ms against the big chain must be a 504.
curl --fail -sS -X PUT "$base/big" --data-binary "@$workdir/big.rules" > /dev/null
code=$(curl -sS -o "$workdir/deadline.json" -w '%{http_code}' -X POST \
  "$base/big/query?timeout=1ms" \
  -d '{"query": "q(X, Y) :- ancestor(X, Y) .", "mode": "chase"}')
echo "cancelled request: HTTP $code $(cat "$workdir/deadline.json")"
if [ "$code" != 504 ]; then
  echo "expected 504 for the 1ms-deadline chase, got $code" >&2
  exit 1
fi

# The family snapshot must be intact after the cancelled request.
ans=$(curl --fail -sS -X POST "$base/default/query" \
  -d '{"query": "q(X, Y) :- ancestor(X, Y) ."}')
grep -q '"count":6' <<<"$ans" || { echo "snapshot changed after cancelled request: $ans" >&2; exit 1; }

# 4a. Streaming read: NDJSON rows as they are produced, then a count trailer.
ndjson=$(curl --fail -sS -X POST "$base/default/query" \
  -H 'Accept: application/x-ndjson' \
  -d '{"query": "q(X, Y) :- ancestor(X, Y) ."}')
echo "ndjson stream:"
echo "$ndjson"
rows=$(grep -c '^\[' <<<"$ndjson" || true)
if [ "$rows" != 6 ]; then
  echo "expected 6 NDJSON answer rows, got $rows" >&2
  exit 1
fi
grep -q '"count":6' <<<"$ndjson" || { echo "NDJSON trailer missing count: $ndjson" >&2; exit 1; }

# 4b. LIMIT push-down against the 400-link chain: the streaming executor
# stops after the first tuple, so one answer comes back inside a deadline
# that the full chase materialization (cf. step 3) blows by orders of
# magnitude. Rewrite mode keeps evaluation on the base snapshot.
code=$(curl -sS -o "$workdir/limit.json" -w '%{http_code}' -X POST \
  "$base/big/query?limit=1&timeout=50ms" \
  -d '{"query": "q(X, Y) :- parent(X, Y) .", "mode": "rewrite"}')
echo "limited request: HTTP $code $(cat "$workdir/limit.json")"
if [ "$code" != 200 ] || ! grep -q '"count":1' "$workdir/limit.json"; then
  echo "expected one answer inside the 50ms budget, got HTTP $code: $(cat "$workdir/limit.json")" >&2
  exit 1
fi

# Stats surface the full-rebuild counter for the serving process.
stats=$(curl --fail -sS "$base/default/stats")
grep -q '"fullRebuilds"' <<<"$stats" || { echo "stats missing fullRebuilds: $stats" >&2; exit 1; }

# 5. Graceful shutdown drains in-flight work and exits zero.
kill -TERM "$pid"
if ! wait "$pid"; then
  echo "server exited non-zero on SIGTERM" >&2
  cat "$workdir/serve.log" >&2
  exit 1
fi
pid=""
if ! grep -q 'drained cleanly' "$workdir/serve.log"; then
  echo "server did not report a clean drain" >&2
  cat "$workdir/serve.log" >&2
  exit 1
fi
echo "serve smoke OK"
