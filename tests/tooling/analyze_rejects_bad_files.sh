#!/bin/sh
# rpcscope_analyze must reject unreadable or corrupt span files with exit 1
# and a message, never abort (exit 134) on a failed allocation.
# Usage: analyze_rejects_bad_files.sh <path to rpcscope_analyze>
analyze=$1
dir=$(mktemp -d) || exit 1
trap 'rm -rf "$dir"' EXIT

# Header declaring 2^32 - 1 spans, then nothing.
printf 'RSPN\002\377\377\377\377\017' > "$dir/huge_count.bin"
# Header declaring 2^63 spans.
printf 'RSPN\002\200\200\200\200\200\200\200\200\200\001' > "$dir/max_count.bin"
# One span whose 10-byte trace id leaves 20 of the 35 bytes it needs.
printf 'RSPN\002\001\377\377\377\377\377\377\377\377\377\001' > "$dir/truncated.bin"
printf '\002\002\002\002\002\002\002\002\002\002\002\002\002\002\002\002\002\002\002\002' \
  >> "$dir/truncated.bin"

status=0
for file in "$dir" "$dir/huge_count.bin" "$dir/max_count.bin" "$dir/truncated.bin"; do
  for mode in "" --analysis=trees; do
    # $mode is unquoted on purpose: the default mode passes no flag at all.
    "$analyze" $mode "$file" >/dev/null 2>&1
    code=$?
    if [ "$code" -ne 1 ]; then
      echo "rpcscope_analyze ${mode:-(default)} $(basename "$file"): exit $code, want 1"
      status=1
    fi
  done
done
exit $status
