#!/usr/bin/env bash
# Asserts OBSERVABILITY.md documents the full observability surface:
# every histanon_* metric family declared in internal/obs/obs.go
# (including the histanon_slo_* SLO families), every audit Event wire
# field declared in internal/obs/audit.go (including the kind="slo"
# fields), every span stage name, every span JSON field, and every
# tail-sampling keep reason declared in internal/obs/trace.go — plus
# the privacy-SLO surface: every /v1/slo and /healthz-SLO JSON field
# declared in internal/httpapi/slo.go and every canary probe field
# declared in internal/slo/canary.go. CI runs it in the docs job, so
# adding a metric or field without documenting it fails the build. The
# metric check also runs in reverse: every histanon_* family the doc
# names must be declared in internal/obs/obs.go, so removing a family
# without updating the doc fails too.
set -euo pipefail
cd "$(dirname "$0")/.."

doc=OBSERVABILITY.md
[ -f "$doc" ] || { echo "$doc missing" >&2; exit 1; }
fail=0

declared=$(grep -o '"histanon_[a-z0-9_]*"' internal/obs/obs.go | tr -d '"' | sort -u)
for name in $declared; do
    if ! grep -q "$name" "$doc"; then
        echo "metric family $name undocumented in $doc" >&2
        fail=1
    fi
done

# Reverse: a documented family must exist. Prefix tokens such as
# histanon_slo_* end in "_" and are skipped; the exposition's
# _bucket/_sum/_count series suffixes resolve to their family.
for token in $(grep -o 'histanon_[a-z0-9_]*' "$doc" | sort -u); do
    case "$token" in *_) continue ;; esac
    family=$(echo "$token" | sed -E 's/_(bucket|sum|count)$//')
    if ! grep -qx -e "$token" -e "$family" <<<"$declared"; then
        echo "metric family $token documented in $doc but not declared in internal/obs/obs.go" >&2
        fail=1
    fi
done

for field in $(grep -o 'json:"[a-z0-9_]*' internal/obs/audit.go | sed 's/json:"//' | sort -u); do
    if ! grep -q "\`$field\`" "$doc"; then
        echo "audit field $field undocumented in $doc" >&2
        fail=1
    fi
done

for stage in $(sed -n '/^func (s Stage) String/,/^}/p' internal/obs/trace.go |
               grep -o 'return "[a-z_]*"' | sed 's/return "//;s/"//' | sort -u); do
    [ "$stage" = unknown ] && continue
    if ! grep -q "\`$stage\`" "$doc"; then
        echo "span stage $stage undocumented in $doc" >&2
        fail=1
    fi
done

for field in $(grep -o 'json:"[a-zA-Z0-9_]*' internal/obs/trace.go | sed 's/json:"//' | sort -u); do
    if ! grep -q "\`$field\`" "$doc"; then
        echo "span field $field undocumented in $doc" >&2
        fail=1
    fi
done

for reason in $(sed -n '/Tail-sampling keep reasons/,/^)/p' internal/obs/trace.go |
                grep -o '= "[a-z_]*"' | sed 's/= "//;s/"//' | sort -u); do
    if ! grep -q "\`$reason\`" "$doc"; then
        echo "keep reason $reason undocumented in $doc" >&2
        fail=1
    fi
done

# The SLO endpoint surface: /v1/slo response fields and the /healthz
# SLO section (internal/httpapi/slo.go), and the canary probe result
# fields (internal/slo/canary.go). "-" tags (excluded from the wire)
# are skipped.
for field in $(grep -o 'json:"[a-zA-Z0-9_]*' internal/httpapi/slo.go internal/slo/canary.go |
               sed 's/.*json:"//' | sort -u); do
    if ! grep -q "\`$field\`" "$doc"; then
        echo "SLO field $field undocumented in $doc" >&2
        fail=1
    fi
done

# The burn-rate state machine's degraded reasons and audit kind must
# keep their documented names.
for token in 'slo_warning:' 'slo_page:' 'canary_stale' 'kind="slo"'; do
    if ! grep -qF "$token" "$doc"; then
        echo "SLO token $token undocumented in $doc" >&2
        fail=1
    fi
done

if [ "$fail" = 0 ]; then
    echo "checkobsdocs: $doc covers all metrics, audit fields, stages, span fields, keep reasons and the SLO surface"
fi
exit "$fail"
