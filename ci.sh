#!/bin/sh
# ci.sh - the checks a change must pass: tier-1 build + tests, gofmt,
# vet, and the race-detector leg over the packages with concurrency
# surface.
set -eux

go build ./...
# Every tracked Go file is gofmt-clean.
test -z "$(git ls-files '*.go' | xargs gofmt -l)"
go vet ./...
go test ./...
# The race leg; the Makefile keeps the package list (RACE_PKGS).
make race
# The chaos legs: every serving failure mode at once, a fleet backend
# killed mid-classify-storm, and the model lifecycle driven through
# drift -> retrain -> shadow -> promote -> rollback, all
# race-instrumented.
go test -race -count=1 -run TestChaos ./internal/serve ./internal/fleet
# The fuzz leg: one 10s run per fuzz target. The Makefile keeps the
# list.
make fuzz-smoke
