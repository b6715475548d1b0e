#!/usr/bin/env bash
# Print the non-test source line counts: all of src/ and the runtime
# (src/runtime). Counts the lines of the C++ sources and headers that git
# tracks under each directory (tests live outside src/).
#
# Usage: scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
  git ls-files -- "$1" | grep -E '\.(cpp|hpp)$' | xargs -r cat | wc -l
}

echo "src: $(count src) lines"
echo "src/runtime: $(count src/runtime) lines"
