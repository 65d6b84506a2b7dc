#!/bin/sh
# Orphan-module guard: fails when a header under src/ is included by
# nothing except its own .cpp and tests/. Such a module is reached by no
# library code, bench, example, fuzzer, CLI or perfbench program; only its
# own tests keep it alive. Wire it into a pipeline or delete it together
# with its tests.
#
#   tools/check_orphans.sh [repo-root]
set -eu
cd "${1:-$(dirname "$0")/..}"
status=0
for hdr in $(find src -name '*.hpp' | sort); do
    own=${hdr%.hpp}.cpp
    users=$(grep -rlF --include='*.cpp' --include='*.hpp' \
                "#include \"${hdr#src/}\"" \
                src bench examples fuzz perfbench tools |
            grep -vxF "$own" || true)
    if [ -z "$users" ]; then
        echo "orphan module: $hdr is included only by its own .cpp" \
             "and tests/" >&2
        status=1
    fi
done
exit $status
