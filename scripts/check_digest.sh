#!/usr/bin/env bash
# Checks a harness's digest line against its committed value.
#
# usage: scripts/check_digest.sh NAME LINE
#        scripts/check_digest.sh NAME -- COMMAND [ARG...]
#
# NAME is a key in tests/golden/digests.env. LINE is the `=> fleet: ...
# digest <hex>` line `rchlint --differential`, `table5`, `fig10` or
# `ablation` printed, whose last word is the digest.
#
# The second form runs COMMAND twice, with `--jobs 1` and then with
# `--jobs 4` appended, and takes each run's `=> fleet:` line. The two
# lines must be equal once their `jobs=N` field is dropped, and the
# first one's digest must be the committed value.
#
# Exits 1 when the digests differ, or a run fails or prints no `=>
# fleet:` line; 2 when NAME is not in the file.
set -euo pipefail

name=$1
shift
file=tests/golden/digests.env
want=$(sed -n "s/^$name=//p" "$(dirname "$0")/../$file")
if [ -z "$want" ]; then
    echo "check_digest: no $name in $file" >&2
    exit 2
fi

if [ "$1" = "--" ]; then
    shift
    fleet_line() { # the `=> fleet:` line of COMMAND --jobs $1
        "${command[@]}" --jobs "$1" | grep '^=> fleet:' | tail -n 1
    }
    command=("$@")
    for jobs in 1 4; do
        if ! lines[jobs]=$(fleet_line "$jobs"); then
            echo "check_digest: \`$* --jobs $jobs\` failed or printed no => fleet: line" >&2
            exit 1
        fi
        echo "$name --jobs $jobs: ${lines[jobs]}"
    done
    if [ "$(sed 's/jobs=[0-9]*//' <<<"${lines[1]}")" != \
        "$(sed 's/jobs=[0-9]*//' <<<"${lines[4]}")" ]; then
        echo "check_digest: $name differs between --jobs 1 and --jobs 4" >&2
        exit 1
    fi
    line=${lines[1]}
else
    line=$1
fi
got=${line##* }

if [ "$got" != "$want" ]; then
    echo "check_digest: $name digest is $got, but $file has $want" >&2
    exit 1
fi
echo "check_digest: $name digest $got matches $file"
