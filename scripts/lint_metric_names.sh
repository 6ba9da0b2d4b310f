#!/usr/bin/env bash
# Enforces the instrument/span naming convention across every literal
# registered with the metrics registry or the tracer:
#
#   <subsystem>.<stage>[.<detail>...]
#
# where <subsystem> is one of the known top-level namespaces and every
# following segment is lowercase [a-z0-9_]. One convention keeps admin
# `metrics` output greppable (`serve.` pulls one subsystem), lets
# dashboards match on stable prefixes, and makes the Perfetto span
# names sort next to their subsystem's counters.
#
# Scope: production sources (src/, examples/, bench/). Tests register
# deliberately-namespaced scratch instruments (obs_test.*) and are
# exempt.
#
# Usage: scripts/lint_metric_names.sh   (exits non-zero on offenders)
set -euo pipefail
cd "$(dirname "$0")/.."

SUBSYSTEMS='core|serve|net|obs|util|chain|sim|tensor|bench'
NAME_RE="^(${SUBSYSTEMS})(\.[a-z0-9_]+)+\$"

# Every call that registers a named instrument or emits a named span /
# flow event. The first string literal argument is the name.
CALLS='GetCounter|GetGauge|GetHistogram|RegisterProvider|BA_TRACE_SPAN|RecordCounter|RecordComplete|RecordAsync'

fail=0
count=0
while IFS= read -r hit; do
  # hit looks like  path:line:Call("name"
  location="$(printf '%s' "$hit" | sed -E 's/:('"$CALLS"')\(".*$//')"
  name="$(printf '%s' "$hit" | sed -E 's/^.*:('"$CALLS"')\("//')"
  name="${name%\"}"
  count=$((count + 1))
  if ! printf '%s' "$name" | grep -qE "$NAME_RE"; then
    echo "lint_metric_names: BAD NAME \"$name\" at $location" >&2
    echo "  want: <subsystem>.<stage> with subsystem in {${SUBSYSTEMS//|/, }}" >&2
    fail=1
  fi
done < <(grep -rnoE "(${CALLS})\(\"[^\"]*\"" src/ examples/ bench/)

if [ "$count" -eq 0 ]; then
  echo "lint_metric_names: found no instrument registrations at all — the grep is broken" >&2
  exit 1
fi
if [ "$fail" -ne 0 ]; then
  exit 1
fi

# Load-bearing span names: dashboards and the perf gates grep for
# these literals, so a rename must fail here instead of silently
# breaking them. (tensor.gemm covers the fp32 dispatch path,
# tensor.gemm.int8 the quantized kernels, core.quant.calibrate the
# post-training calibration pass; serve.sweep.requests is the engine's
# sweep-detector counter, scraped by the net smoke mode of check.sh.)
for required in core.quant.calibrate tensor.gemm tensor.gemm.int8 \
                serve.sweep.requests; do
  if ! grep -rqF "\"$required\"" src/; then
    echo "lint_metric_names: REQUIRED SPAN \"$required\" missing from src/" >&2
    exit 1
  fi
done

echo "lint_metric_names OK: $count instrument/span names conform"
