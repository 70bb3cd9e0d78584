#!/bin/sh
# Checks of the leadframe console script, run from the root of a checkout:
#
#     sh tests/console_checks.sh
#     LEADFRAME="env PYTHONPATH=src python -m leadframe" sh tests/console_checks.sh
#
# LEADFRAME is the command to run (default: the installed `leadframe`).
# Every file is written to a fresh temporary directory, removed on exit.
#
# The 5,000-entity panel, drawn and written in several blocks of entities,
# must have the SHA-256 of the synth-panel pin in bench/pinned.json.  Two
# runs on a few long histories, which draw over many chunks of steps, must
# write the same bytes.  A panel of 5,000 entities spans 9 blocks of
# the numpy tokenizer; two runs of each command on it must write the same
# bytes too.  A CRLF copy of that panel goes through the csv.reader
# tokenizer instead, about 26 blocks of rows in arrays sized from its line
# breaks, and must give the same training set.  transform and score read the
# 5,000-entity panel a block of whole entities at a time; both files piped in
# through /dev/stdin, which cannot seek and so is read whole before the parse
# reads it as it reads a file, and a copy with its rows ordered by period,
# whose blocks are not whole entities and so is read whole from its start,
# must give the same training set and the same scores; so must a panel of
# three entities of about 400 KB each, each longer than a block of the
# streamed read, read from its file and piped in.  train reads the plain
# training CSV a block of lines at a time with the panel's tokenizer; its
# CRLF copy, which csv.reader reads, and the plain file piped in through
# /dev/stdin, read whole first, must give the same model.json bytes.  validate reads the
# panel as transform and score do: streamed, the copy ordered by period and
# the panel piped through /dev/stdin must print the same reports and exit
# with the same code; so must a copy with a gap in an entity of its first
# block and of a later one and an early flag before an entity's event,
# which must print those three reports' findings and exit 1.  A sweep folds every lead time of a side in
# one call, each entity up to its longest window: on the long histories, two
# runs over lead times up to 96 periods must write the same bytes, and on the
# 5,000-entity panel, unsorted and repeated lead times must give the curve
# of the same lead times sorted and once each.
# Under a plan over two of the five feature columns, each command holds only
# those two: two runs of transform, score and sweep must write the same
# bytes, and a -1 planted in a column the plan does not read must still
# make transform exit 2, with the same line-numbered message from the plain
# file and from its CRLF copy.  A copy of the 5,000-entity panel whose last
# entity's calls sum to inf must make transform and score exit 1 with the
# same message, streamed from its file and piped in through /dev/stdin.
set -eu

# Left unquoted where it runs: LEADFRAME may be a command with arguments.
LEADFRAME=${LEADFRAME:-leadframe}
config=data/telecom_config.json
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

$LEADFRAME synth --output "$tmp/p.csv" --entities 5000
echo "553ffd2f087b4cc8ed688fc9538ce4693db45f42d3abfa533c90ffd020494cc0  $tmp/p.csv" \
    | sha256sum -c -
$LEADFRAME synth --output "$tmp/long1.csv" --entities 3 --periods 400 --ramp-length 48
$LEADFRAME synth --output "$tmp/long2.csv" --entities 3 --periods 400 --ramp-length 48
cmp "$tmp/long1.csv" "$tmp/long2.csv"
$LEADFRAME transform --input "$tmp/p.csv" --config $config --output "$tmp/t1.csv"
$LEADFRAME transform --input "$tmp/p.csv" --config $config --output "$tmp/t2.csv"
cmp "$tmp/t1.csv" "$tmp/t2.csv"
sed 's/$/\r/' "$tmp/p.csv" > "$tmp/p-crlf.csv"
$LEADFRAME transform --input "$tmp/p-crlf.csv" --config $config --output "$tmp/t3.csv"
cmp "$tmp/t1.csv" "$tmp/t3.csv"
for copy in p p-crlf; do
    cat "$tmp/$copy.csv" | $LEADFRAME transform --input /dev/stdin --config $config \
        --output "$tmp/$copy-piped.csv"
    cmp "$tmp/t1.csv" "$tmp/$copy-piped.csv"
done
for n in 1 2; do
    $LEADFRAME train --input "$tmp/t1.csv" --config $config --output "$tmp/m$n.json"
    $LEADFRAME score --input "$tmp/p.csv" --model "$tmp/m1.json" --config $config --output "$tmp/s$n.csv"
    $LEADFRAME sweep --input "$tmp/p.csv" --config $config --lead-times 0,1,2,3,6 --output "$tmp/c$n.csv"
done
cmp "$tmp/m1.json" "$tmp/m2.json"
cmp "$tmp/s1.csv" "$tmp/s2.csv"
sed 's/$/\r/' "$tmp/t1.csv" > "$tmp/t1-crlf.csv"
$LEADFRAME train --input "$tmp/t1-crlf.csv" --config $config --output "$tmp/m3.json"
cmp "$tmp/m1.json" "$tmp/m3.json"
cat "$tmp/t1.csv" | $LEADFRAME train --input /dev/stdin --config $config --output "$tmp/m4.json"
cmp "$tmp/m1.json" "$tmp/m4.json"
for copy in p p-crlf; do
    cat "$tmp/$copy.csv" | $LEADFRAME score --input /dev/stdin --model "$tmp/m1.json" \
        --config $config --output "$tmp/$copy-piped-s.csv"
    cmp "$tmp/s1.csv" "$tmp/$copy-piped-s.csv"
done
$LEADFRAME synth --output "$tmp/wide.csv" --entities 3 --periods 20000
$LEADFRAME transform --input "$tmp/wide.csv" --config $config --output "$tmp/wide-t1.csv"
cat "$tmp/wide.csv" | $LEADFRAME transform --input /dev/stdin --config $config \
    --output "$tmp/wide-t2.csv"
cmp "$tmp/wide-t1.csv" "$tmp/wide-t2.csv"
$LEADFRAME score --input "$tmp/wide.csv" --model "$tmp/m1.json" --config $config \
    --output "$tmp/wide-s1.csv"
cat "$tmp/wide.csv" | $LEADFRAME score --input /dev/stdin --model "$tmp/m1.json" \
    --config $config --output "$tmp/wide-s2.csv"
cmp "$tmp/wide-s1.csv" "$tmp/wide-s2.csv"
{ head -n 1 "$tmp/p.csv"; tail -n +2 "$tmp/p.csv" | sort -t, -k2,2n -s; } > "$tmp/p-by-period.csv"
$LEADFRAME transform --input "$tmp/p-by-period.csv" --config $config --output "$tmp/t4.csv"
cmp "$tmp/t1.csv" "$tmp/t4.csv"
$LEADFRAME score --input "$tmp/p-by-period.csv" --model "$tmp/m1.json" --config $config \
    --output "$tmp/s3.csv"
cmp "$tmp/s1.csv" "$tmp/s3.csv"
# The reports of validate <input> <name>, then its exit code, to $tmp/v-<name>.txt.
validate() {
    status=0
    $LEADFRAME validate --input "$1" --config $config > "$tmp/v-$2.txt" || status=$?
    echo "exit $status" >> "$tmp/v-$2.txt"
}
validate "$tmp/p.csv" streamed
validate "$tmp/p-by-period.csv" by-period
cat "$tmp/p.csv" | validate /dev/stdin piped
cmp "$tmp/v-streamed.txt" "$tmp/v-by-period.txt"
cmp "$tmp/v-streamed.txt" "$tmp/v-piped.txt"
# E0000 gets a flag at month 3 before its event at month 8, and E0001 and
# E4794, in the first and a later block, each lose a row in mid-history.
sed -e '4s/0$/1/' -e '12d' -e '100000d' "$tmp/p.csv" > "$tmp/pf.csv"
{ head -n 1 "$tmp/pf.csv"; tail -n +2 "$tmp/pf.csv" | sort -t, -k2,2n -s; } \
    > "$tmp/pf-by-period.csv"
validate "$tmp/pf.csv" findings
validate "$tmp/pf-by-period.csv" findings-by-period
cat "$tmp/pf.csv" | validate /dev/stdin findings-piped
cmp "$tmp/v-findings.txt" "$tmp/v-findings-by-period.txt"
cmp "$tmp/v-findings.txt" "$tmp/v-findings-piped.txt"
test "$(tail -n 1 "$tmp/v-findings.txt")" = "exit 1"
grep -v '"findings": \[\]' "$tmp/v-findings.txt" > "$tmp/v-found.txt"
cat > "$tmp/v-found-expected.txt" <<'END'
{"entity": "E0000", "findings": [{"code": "multiple_events", "level": "warning", "message": "2 records carry the event flag; only the first (3) is treated as the event"}, {"code": "records_after_event", "level": "warning", "message": "5 record(s) after the first event flag (3) are ignored by the transform"}]}
{"entity": "E0001", "findings": [{"code": "period_gaps", "level": "info", "message": "1 unobserved period(s) between 1 and 24"}]}
{"entity": "E4794", "findings": [{"code": "period_gaps", "level": "info", "message": "1 unobserved period(s) between 1 and 24"}]}
exit 1
END
cmp "$tmp/v-found-expected.txt" "$tmp/v-found.txt"
cmp "$tmp/c1.csv" "$tmp/c2.csv"
for n in 1 2; do
    $LEADFRAME sweep --input "$tmp/long1.csv" --config $config --lead-times 0,1,2,3,6,24,96 \
        --output "$tmp/lc$n.csv"
done
cmp "$tmp/lc1.csv" "$tmp/lc2.csv"
$LEADFRAME sweep --input "$tmp/p.csv" --config $config --lead-times 6,0,3,0,1 --output "$tmp/c3.csv"
$LEADFRAME sweep --input "$tmp/p.csv" --config $config --lead-times 0,1,3,6 --output "$tmp/c4.csv"
cmp "$tmp/c3.csv" "$tmp/c4.csv"
cat > "$tmp/two.json" <<'END'
{
  "schema": {
    "entity_column": "customer", "period_column": "month", "event_column": "churn",
    "feature_columns": ["outbound_calls", "complaints", "interruptions",
                        "resolution_time", "promotions"]
  },
  "plan": [
    {"name": "calls_total", "kind": "sum", "column": "outbound_calls"},
    {"name": "interrupted", "kind": "count_nonzero", "column": "interruptions"},
    {"name": "calls_per_interruption", "kind": "ratio_of_sums",
     "numerator": "outbound_calls", "denominator": "interruptions"}
  ],
  "eval": {"test_fraction": 0.3, "lead_times": [0, 1, 2, 3], "seed": 7}
}
END
$LEADFRAME transform --input "$tmp/p.csv" --config "$tmp/two.json" --output "$tmp/two-t.csv"
$LEADFRAME train --input "$tmp/two-t.csv" --config "$tmp/two.json" --output "$tmp/two-m.json"
for n in 1 2; do
    $LEADFRAME transform --input "$tmp/p.csv" --config "$tmp/two.json" --output "$tmp/two-t$n.csv"
    $LEADFRAME score --input "$tmp/p.csv" --model "$tmp/two-m.json" --config "$tmp/two.json" \
        --output "$tmp/two-s$n.csv"
    $LEADFRAME sweep --input "$tmp/p.csv" --config "$tmp/two.json" --output "$tmp/two-c$n.csv"
done
cmp "$tmp/two-t1.csv" "$tmp/two-t2.csv"
cmp "$tmp/two-s1.csv" "$tmp/two-s2.csv"
cmp "$tmp/two-c1.csv" "$tmp/two-c2.csv"
# The fourth cell of line 1000 is its complaints value, which the plan does not read.
for copy in p p-crlf; do
    sed '1000s/^\([^,]*,[^,]*,[^,]*,\)[^,]*/\1-1/' "$tmp/$copy.csv" > "$tmp/$copy-bad.csv"
    status=0
    $LEADFRAME transform --input "$tmp/$copy-bad.csv" --config "$tmp/two.json" \
        --output "$tmp/$copy-bad-t.csv" 2> "$tmp/$copy-bad.err" || status=$?
    test "$status" -eq 2
done
cmp "$tmp/p-bad.err" "$tmp/p-crlf-bad.err"
echo "error: line 1000: value '-1' in column 'complaints' must be finite and non-negative" \
    | cmp - "$tmp/p-bad.err"
{ head -n -2 "$tmp/p.csv"; tail -n 2 "$tmp/p.csv" | sed 's/^\([^,]*,[^,]*,\)[^,]*/\11e308/'; } \
    > "$tmp/p-inf.csv"
for command in transform score; do
    model=""
    if [ $command = score ]; then model="--model $tmp/m1.json"; fi
    status=0
    $LEADFRAME $command --input "$tmp/p-inf.csv" $model --config $config \
        --output "$tmp/inf-$command.csv" 2> "$tmp/inf-$command.err" || status=$?
    test "$status" -eq 1
    status=0
    cat "$tmp/p-inf.csv" | $LEADFRAME $command --input /dev/stdin $model --config $config \
        --output "$tmp/inf-$command-piped.csv" 2> "$tmp/inf-$command-piped.err" || status=$?
    test "$status" -eq 1
    cmp "$tmp/inf-$command.err" "$tmp/inf-$command-piped.err"
    echo "error: entity 'E4999': feature 'calls_total' is inf; the input values overflow a float" \
        | cmp - "$tmp/inf-$command.err"
done
$LEADFRAME validate --input data/telecom_panel.csv --config $config
echo "console checks passed"
