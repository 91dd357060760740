#!/usr/bin/env bash
# Docs-consistency gate -- a thin wrapper over pcs-lint's SCHEMA001 rule
# (tools/pcs_lint), which absorbed the greps that used to live here: every
# record type / field emitted in src/ must appear in the TELEMETRY.md
# ```schema-fields appendix and vice versa, and the documented schema
# version must match kTelemetrySchemaVersion. (The job-file schema in
# POPULATION.md is checked by the JobSchema unit test in
# tests/test_job_service.cpp, which blocks through ctest's `unit` label.)
# Kept as a script so existing callers (and muscle memory) keep working.
set -euo pipefail
cd "$(dirname "$0")/.."

for candidate in build/tools/pcs_lint/pcs_lint build-*/tools/pcs_lint/pcs_lint; do
  if [[ -x "$candidate" ]]; then
    exec "$candidate" --rules SCHEMA001 "$@"
  fi
done

echo "check_telemetry_docs: pcs_lint binary not found; build it first:" >&2
echo "  cmake -B build -S . && cmake --build build --target pcs_lint" >&2
exit 2
