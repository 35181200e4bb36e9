#!/usr/bin/env bash
# Re-pin check: a pinned report that moved must come with a new job key.
#
# Joins tests/goldens/sweep_digests.txt (`key digest` per line) with the
# same file at BASE on the key, and fails listing every key present in
# both with different digests. A model change that re-pins reports
# without bumping REPORT_FORMAT would leave every warm store answering
# the old bytes under the unchanged keys; a REPORT_FORMAT bump re-keys
# every point, so no key is shared and the check passes. Builds nothing.
#
# Usage: scripts/check_repin.sh [BASE]   (default HEAD^1; on a pull
# request's merge commit that is the base branch tip). Run from the
# repository root; exit 0 when no shared key moved.
set -euo pipefail

BASE="${1:-HEAD^1}"
MANIFEST=tests/goldens/sweep_digests.txt

if ! git cat-file -e "$BASE:$MANIFEST" 2>/dev/null; then
    echo "no $MANIFEST at $BASE: nothing to compare"
    exit 0
fi

moved=$(git show "$BASE:$MANIFEST" | awk '
    NR == FNR { base[$1] = $2; next }
    ($1 in base) && base[$1] != $2 { print $1 ": " base[$1] " -> " $2 }
' - "$MANIFEST")

if [ -n "$moved" ]; then
    echo "reports re-pinned under unchanged job keys (bump REPORT_FORMAT):" >&2
    echo "$moved" >&2
    exit 1
fi
echo "re-pin check OK: no key shared with $BASE changed its digest"
