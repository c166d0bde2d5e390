#!/usr/bin/env bash
# vet.sh — the repository's full static-analysis gate, runnable locally
# and in CI (the lint job calls exactly this script):
#
#   1. gofmt -l        — every Go file is gofmt-clean (hidden directories
#                        such as .git and .bench_build are skipped)
#   2. go vet          — the stock toolchain checks
#   3. staticcheck     — if installed; CI installs the pinned version
#                        from .github/workflows/ci.yml, locally it is
#                        optional so a bare container can still vet
#   4. slingvet        — the repo's own analyzer suite (cmd/slingvet):
#                        determinism, cancellation, pooling, error
#                        contract, metrics-schema, and unsafe-confinement
#                        invariants
#
# Usage: scripts/vet.sh [packages...]   (default ./...)
set -euo pipefail
cd "$(dirname "$0")/.."

pkgs=("$@")
if [ ${#pkgs[@]} -eq 0 ]; then
  pkgs=(./...)
fi

echo "==> gofmt"
unformatted=$(find . -path './.*' -prune -o -name '*.go' -print | xargs gofmt -l)
if [ -n "$unformatted" ]; then
  echo "gofmt -l lists files that need formatting (run gofmt -w on them):"
  echo "$unformatted"
  exit 1
fi

echo "==> go vet"
go vet "${pkgs[@]}"

if command -v staticcheck >/dev/null 2>&1; then
  echo "==> staticcheck"
  staticcheck "${pkgs[@]}"
else
  echo "==> staticcheck not installed; skipping (CI runs the pinned version)"
fi

echo "==> slingvet"
go run ./cmd/slingvet "${pkgs[@]}"

echo "ok: all static analysis passed"
