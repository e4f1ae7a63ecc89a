#!/usr/bin/env bash
# Byte-identity check for a change that should not move any number: run
# the preset commands on git revision REV and on the working tree, then
# diff every artifact the two runs wrote.
#
#   tools/diff_presets.sh REV
#
# REV is exported with `git archive` into a temporary directory; both
# trees run with the same Python.  Each command's exit status is recorded
# beside its artifacts, so a run that fails on one side shows up in the
# diff too.  Prints nothing and exits 0 when the two trees agree byte for
# byte; full fig4 (exact included) dominates the run time.
set -euo pipefail

rev=${1:?usage: tools/diff_presets.sh REV}
root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/rev-tree" "$tmp/rev" "$tmp/work"
git -C "$root" archive "$rev" | tar -x -C "$tmp/rev-tree"

# run_presets SRC OUT: every preset command with tclflex from SRC, writing
# under OUT.  Paths are relative to OUT, so the aggregate's
# effective_config.json names the same inputs on both sides.
run_presets() {
    local src=$1 out=$2
    cd "$out"
    tclflex() {
        local status=0
        PYTHONPATH="$src" python3 -c 'import sys; from tclflex.cli import main; sys.exit(main(sys.argv[1:]))' \
            "$@" >/dev/null 2>&1 || status=$?
        echo "$status tclflex $*" >>exit_status.txt
    }
    tclflex reachhold --preset fig4 --methods inner,outer,exact --out fig4
    tclflex build-model --preset fig4 --out model
    tclflex sweep-setpoint --preset fig5 --out fig5
    tclflex sweep-precool --preset fig6 --out fig6
    tclflex validate --preset fig2 --out fig2
    tclflex validate --preset fig7 --out fig7
    tclflex selfcheck --out selfcheck
    tclflex selfcheck --preset fig4 --out selfcheck-fig4
    echo '{"aggregate": {"inputs": ["fig5/frontier_setpoint_22.csv", "fig6/precooled.csv"]}}' >aggregate.json
    tclflex aggregate --config aggregate.json --out aggregate
}

# the two trees run side by side, one process each
run_presets "$tmp/rev-tree/src" "$tmp/rev" &
run_presets "$root/src" "$tmp/work" &
wait
cd "$tmp"
diff -r rev work
