#!/bin/sh
# Checks of the leadframe console script, run from the root of a checkout:
#
#     sh tests/console_checks.sh
#     LEADFRAME="env PYTHONPATH=src python -m leadframe" sh tests/console_checks.sh
#
# LEADFRAME is the command to run (default: the installed `leadframe`).
# Every file is written to a fresh temporary directory, removed on exit.
#
# Two runs on a few long histories, which draw over many chunks of steps,
# must write the same bytes.  A panel of 5,000 entities spans 9 blocks of
# the numpy tokenizer; two runs of each command on it must write the same
# bytes too.  A CRLF copy of that panel goes through the csv.reader
# tokenizer instead, about 26 blocks of rows in arrays sized from its line
# breaks, and must give the same training set.  A sweep folds every lead
# time of a side in one call, each entity up to its longest window: on the
# long histories, two runs over lead times up to 96 periods must write the
# same bytes, and on the 5,000-entity panel, unsorted and repeated lead
# times must give the curve of the same lead times sorted and once each.
set -eu

# Left unquoted where it runs: LEADFRAME may be a command with arguments.
LEADFRAME=${LEADFRAME:-leadframe}
config=data/telecom_config.json
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

$LEADFRAME synth --output "$tmp/p.csv" --entities 5000
$LEADFRAME synth --output "$tmp/long1.csv" --entities 3 --periods 400 --ramp-length 48
$LEADFRAME synth --output "$tmp/long2.csv" --entities 3 --periods 400 --ramp-length 48
cmp "$tmp/long1.csv" "$tmp/long2.csv"
$LEADFRAME transform --input "$tmp/p.csv" --config $config --output "$tmp/t1.csv"
$LEADFRAME transform --input "$tmp/p.csv" --config $config --output "$tmp/t2.csv"
cmp "$tmp/t1.csv" "$tmp/t2.csv"
sed 's/$/\r/' "$tmp/p.csv" > "$tmp/p-crlf.csv"
$LEADFRAME transform --input "$tmp/p-crlf.csv" --config $config --output "$tmp/t3.csv"
cmp "$tmp/t1.csv" "$tmp/t3.csv"
for n in 1 2; do
    $LEADFRAME train --input "$tmp/t1.csv" --config $config --output "$tmp/m$n.json"
    $LEADFRAME score --input "$tmp/p.csv" --model "$tmp/m1.json" --config $config --output "$tmp/s$n.csv"
    $LEADFRAME sweep --input "$tmp/p.csv" --config $config --lead-times 0,1,2,3,6 --output "$tmp/c$n.csv"
done
cmp "$tmp/m1.json" "$tmp/m2.json"
cmp "$tmp/s1.csv" "$tmp/s2.csv"
cmp "$tmp/c1.csv" "$tmp/c2.csv"
for n in 1 2; do
    $LEADFRAME sweep --input "$tmp/long1.csv" --config $config --lead-times 0,1,2,3,6,24,96 \
        --output "$tmp/lc$n.csv"
done
cmp "$tmp/lc1.csv" "$tmp/lc2.csv"
$LEADFRAME sweep --input "$tmp/p.csv" --config $config --lead-times 6,0,3,0,1 --output "$tmp/c3.csv"
$LEADFRAME sweep --input "$tmp/p.csv" --config $config --lead-times 0,1,3,6 --output "$tmp/c4.csv"
cmp "$tmp/c3.csv" "$tmp/c4.csv"
$LEADFRAME validate --input data/telecom_panel.csv --config $config
echo "console checks passed"
