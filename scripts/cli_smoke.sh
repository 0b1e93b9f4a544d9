#!/usr/bin/env bash
# End-to-end smoke test for the command-line programs and the examples, run
# by `make cli-smoke` and CI.
#
# Builds every program under cmd/ (but reprovet and serve, which have their
# own checks) and examples/, then:
#   1. runs each example, and classify, rewrite -eval, answer (auto and
#      chase) and chase -incremental -add on a small family program; each
#      must exit 0;
#   2. runs programs that use one predicate with two arities through chase
#      and rewrite -eval; each must exit non-zero with a message naming the
#      predicate, and must not panic;
#   3. runs chase twice on a larger family program: the two runs must print
#      byte-identical instances (null names included) and counters;
#   4. runs chase -incremental -delete and chase -incremental -drop-rule R2
#      on that larger program: each must repair incrementally without a
#      panic and print the same sorted null-free facts as the same change
#      re-chased from scratch;
#   5. checks that chase rejects the removed -oblivious and -parallel flags,
#      and answer the removed -cache flag, as flag errors.
set -euo pipefail

cd "$(dirname "$0")/.."
workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

for cmd in answer chase classify rewrite; do
  go build -o "$workdir/$cmd" "./cmd/$cmd"
done
examples=$(cd examples && ls -d */ | tr -d /)
for ex in $examples; do
  go build -o "$workdir/example-$ex" "./examples/$ex"
done

cat > "$workdir/fam.rules" <<'EOF'
parent(X, Y) -> ancestor(X, Y) .
parent(X, Y), ancestor(Y, Z) -> ancestor(X, Z) .
person(X) -> hasParent(X, Y) .
EOF
cat > "$workdir/fam.data" <<'EOF'
parent(ada, bob) .
parent(bob, cyd) .
person(ada) .
EOF

fail=0
# ok NAME CMD...: the command must exit 0.
ok() {
  local name=$1
  shift
  if ! "$@" > "$workdir/out" 2> "$workdir/err"; then
    echo "FAIL $name: exit non-zero" >&2
    cat "$workdir/err" >&2
    fail=1
    return
  fi
  echo "ok   $name"
}
# rejects NAME PRED CMD...: the command must exit non-zero, name PRED on
# stderr and not panic.
rejects() {
  local name=$1 pred=$2
  shift 2
  if "$@" > "$workdir/out" 2> "$workdir/err"; then
    echo "FAIL $name: exit 0, want a rejection" >&2
    fail=1
    return
  fi
  if grep -q 'panic:' "$workdir/err"; then
    echo "FAIL $name: panicked" >&2
    cat "$workdir/err" >&2
    fail=1
    return
  fi
  if ! grep -qw "$pred" "$workdir/err"; then
    echo "FAIL $name: error does not name $pred" >&2
    cat "$workdir/err" >&2
    fail=1
    return
  fi
  echo "ok   $name (rejected: $(tail -1 "$workdir/err"))"
}

for ex in $examples; do
  ok "example $ex" "$workdir/example-$ex"
done
ok "classify" "$workdir/classify" -rules "$workdir/fam.rules"
ok "rewrite -eval" "$workdir/rewrite" -rules "$workdir/fam.rules" -data "$workdir/fam.data" \
  -query 'q(X) :- hasParent(X, Y) .' -eval -timeout 60s
if ! grep -q ada "$workdir/out"; then
  echo "FAIL rewrite -eval: ada certainly has a parent" >&2
  fail=1
fi
ok "answer auto" "$workdir/answer" -rules "$workdir/fam.rules" -data "$workdir/fam.data" \
  -query 'q(X) :- ancestor(ada, X) .'
ok "answer chase" "$workdir/answer" -rules "$workdir/fam.rules" -data "$workdir/fam.data" \
  -query 'q(X) :- ancestor(ada, X) .' -mode chase
if ! grep -q cyd "$workdir/out"; then
  echo "FAIL answer chase: ancestor(ada, cyd) missing" >&2
  fail=1
fi
ok "chase -incremental -add" "$workdir/chase" -rules "$workdir/fam.rules" -data "$workdir/fam.data" \
  -incremental -add 'parent(cyd, dee) .'
if ! grep -q 'ancestor(ada, dee)' "$workdir/out"; then
  echo "FAIL chase -incremental -add: ancestor(ada, dee) missing" >&2
  fail=1
fi

# One predicate, two arities: q is binary in the rule and unary in the data.
printf 'p(X) -> q(X, Y) .\n' > "$workdir/clash.rules"
printf 'q(a) .\np(b) .\n' > "$workdir/clash.data"
rejects "chase, clashing data" q "$workdir/chase" -rules "$workdir/clash.rules" -data "$workdir/clash.data"
# ... and unary in the rule, binary in the data.
printf 'p(X) -> q(X) .\n' > "$workdir/clash2.rules"
printf 'q(a, b) .\n' > "$workdir/clash2.data"
rejects "rewrite -eval, clashing data" q "$workdir/rewrite" -rules "$workdir/clash2.rules" \
  -data "$workdir/clash2.data" -query 'ans(X) :- q(X) .' -eval
# A clashing fact that arrives through -add, before anything derives q.
printf 'r(z) .\n' > "$workdir/clash3.data"
rejects "chase -add, clashing fact" q "$workdir/chase" -rules "$workdir/clash.rules" \
  -data "$workdir/clash3.data" -incremental -add 'q(c) . p(d) .'

# Determinism: a 40-generation family chases in 41 rounds.
for i in $(seq 1 40); do
  printf 'parent(p%d, p%d) .\nperson(p%d) .\n' "$i" "$((i + 1))" "$i"
done > "$workdir/big.data"
for run in a b; do
  ok "chase (run $run)" "$workdir/chase" -rules "$workdir/fam.rules" -data "$workdir/big.data"
  mv "$workdir/out" "$workdir/det-$run.out"
  mv "$workdir/err" "$workdir/det-$run.err"
done
if ! cmp -s "$workdir/det-a.out" "$workdir/det-b.out"; then
  echo "FAIL chase: two runs print different instances" >&2
  fail=1
fi
if ! cmp -s "$workdir/det-a.err" "$workdir/det-b.err"; then
  echo "FAIL chase: two runs report different counters" >&2
  cat "$workdir/det-a.err" "$workdir/det-b.err" >&2
  fail=1
fi

# Incremental deletes: a DRed repair of facts (-delete) or of a rule's
# contribution (-drop-rule) must leave the null-free facts of a re-chase.
for leg in '-delete|parent(p20, p21) . person(p5) .' '-drop-rule|R2'; do
  flag=${leg%%|*}
  arg=${leg#*|}
  name="chase -incremental $flag"
  ok "$name" "$workdir/chase" -rules "$workdir/fam.rules" -data "$workdir/big.data" \
    -incremental "$flag" "$arg"
  grep -v '_:' "$workdir/out" | sort > "$workdir/inc.facts"
  if grep -q 'panic:' "$workdir/err" || ! grep -q 'restricted chase (incremental' "$workdir/err"; then
    echo "FAIL $name: no incremental repair" >&2
    cat "$workdir/err" >&2
    fail=1
  fi
  ok "chase $flag" "$workdir/chase" -rules "$workdir/fam.rules" \
    -data "$workdir/big.data" "$flag" "$arg"
  grep -v '_:' "$workdir/out" | sort > "$workdir/rechase.facts"
  if ! cmp -s "$workdir/inc.facts" "$workdir/rechase.facts"; then
    echo "FAIL $name: null-free facts differ from the re-chase" >&2
    diff "$workdir/inc.facts" "$workdir/rechase.facts" | head >&2
    fail=1
  fi
done

# There is one chase: -oblivious is an unknown flag.
rejects "chase -oblivious" oblivious "$workdir/chase" -rules "$workdir/fam.rules" -oblivious
if ! grep -q 'flag provided but not defined' "$workdir/err"; then
  echo "FAIL chase -oblivious: not a flag error" >&2
  fail=1
fi
# There is one chase worker: -parallel is an unknown flag.
rejects "chase -parallel" parallel "$workdir/chase" -rules "$workdir/fam.rules" -parallel 4
if ! grep -q 'flag provided but not defined' "$workdir/err"; then
  echo "FAIL chase -parallel: not a flag error" >&2
  fail=1
fi
# answer has no -cache: it answers once before and once after its mutations,
# and every publication empties the answer views, so a cache never hits.
rejects "answer -cache" cache "$workdir/answer" -rules "$workdir/fam.rules" \
  -query 'q(X) :- person(X) .' -cache 1048576
if ! grep -q 'flag provided but not defined' "$workdir/err"; then
  echo "FAIL answer -cache: not a flag error" >&2
  fail=1
fi

if [ "$fail" -ne 0 ]; then
  echo "cli smoke: FAILED" >&2
  exit 1
fi
echo "cli smoke: ok"
