#!/usr/bin/env bash
# Lint + tier-1 test gate. Run from the repository root:
#
#   scripts/check.sh          # ruff (if installed) + pytest
#   scripts/check.sh --fast   # lint only
#
# ruff is optional tooling (the runtime environment may not ship it);
# when absent the lint step is skipped with a warning instead of failing,
# so the gate still works in minimal containers.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== bytecode hygiene =="
bytecode="$( { git ls-files; git diff --cached --name-only; } \
    | grep -E '(^|/)__pycache__(/|$)|\.pyc$' | sort -u || true)"
if [[ -n "$bytecode" ]]; then
    echo "ERROR: compiled bytecode is tracked or staged:" >&2
    echo "$bytecode" >&2
    echo "unstage it (git rm -r --cached <path>); .gitignore covers" \
         "__pycache__/ and *.pyc" >&2
    exit 1
fi

if command -v ruff >/dev/null 2>&1; then
    echo "== ruff =="
    ruff check src tests examples
elif python -c "import ruff" >/dev/null 2>&1; then
    echo "== ruff (module) =="
    python -m ruff check src tests examples
else
    echo "WARNING: ruff not installed; skipping lint" >&2
fi

if [[ "${1:-}" == "--fast" ]]; then
    exit 0
fi

echo "== tier-1 tests =="
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -x -q
