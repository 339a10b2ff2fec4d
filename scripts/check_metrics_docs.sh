#!/bin/sh
# Metrics-drift gate: every statically named ktg_* metric registered in
# non-test Go code must appear in README.md's metrics reference, so the
# docs cannot silently fall behind the code.
set -eu
cd "$(dirname "$0")/.."

status=0
for name in $(grep -rhoE '"ktg_[a-zA-Z0-9_]+"' --include='*.go' --exclude='*_test.go' . \
        | tr -d '"' | sort -u); do
    if ! grep -q "$name" README.md; then
        echo "check_metrics_docs: $name is registered in code but undocumented in README.md" >&2
        status=1
    fi
done
[ "$status" -eq 0 ] && echo "check_metrics_docs: ok"
exit "$status"
