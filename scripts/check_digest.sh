#!/usr/bin/env bash
# Checks a harness's digest line against its committed value.
#
# usage: scripts/check_digest.sh NAME LINE
#
# NAME is a key in tests/golden/digests.env; LINE is the `=> fleet: ...
# digest <hex>` line `rchlint --differential` or `table5` printed, whose
# last word is the digest. Exits 1 when the two differ, 2 when NAME is
# not in the file.
set -euo pipefail

name=$1
line=$2
file=tests/golden/digests.env
want=$(sed -n "s/^$name=//p" "$(dirname "$0")/../$file")
got=${line##* }

if [ -z "$want" ]; then
    echo "check_digest: no $name in $file" >&2
    exit 2
fi
if [ "$got" != "$want" ]; then
    echo "check_digest: $name digest is $got, but $file has $want" >&2
    exit 1
fi
echo "check_digest: $name digest $got matches $file"
