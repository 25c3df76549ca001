#!/bin/sh
# ckpt_smoke.sh — checkpoint determinism smoke: the same experiment run
# with and without `-checkpoints` must print byte-identical output.
# Forked runs restore the NEX engine section and replay its journal,
# while devices are rebuilt fresh and re-clocked, so any divergence (a
# missed field in the engine section, a replay that drifts, a device
# whose idle state the re-clock does not reproduce) shows up as a byte
# diff here before it can corrupt a real sweep. table4 exercises the NEX
# engine paths the snapshot serializes; vtasweep and protosweep fork one
# DSim prefix into RTL, fabric and DMA-level variants. None of the three
# prints wall-clock-dependent lines. Run as part of check.sh.
set -eu

TMPDIR_SMOKE="$(mktemp -d)"
cleanup() {
    status=$?
    rm -rf "$TMPDIR_SMOKE"
    exit "$status"
}
trap cleanup EXIT INT TERM

echo "ckpt-smoke: building paperbench"
go build -o "$TMPDIR_SMOKE/paperbench" ./cmd/paperbench

# The per-experiment "(table4 in Nms)" footer is host wall-clock time
# and varies run to run; every simulated number above it must not.
strip_wall() { sed '/^([a-z0-9-]* in [0-9.]*[a-zµ]*s)$/d'; }

# Checkpoints must also compose with intra-run parallelism: forked runs
# resume with stepper lanes live, and the result must still match the
# serial no-checkpoint baseline byte for byte. GOMAXPROCS is raised so
# the intra clamp does not quietly serialize the run on single-core CI.
for exp in table4 vtasweep protosweep; do
    echo "ckpt-smoke: $exp: plain, -checkpoints, -checkpoints -intra 2"
    "$TMPDIR_SMOKE/paperbench" -exp "$exp" -parallel 1 | strip_wall >"$TMPDIR_SMOKE/$exp.plain"
    "$TMPDIR_SMOKE/paperbench" -exp "$exp" -parallel 1 -checkpoints | strip_wall >"$TMPDIR_SMOKE/$exp.ckpt"
    if ! diff -u "$TMPDIR_SMOKE/$exp.plain" "$TMPDIR_SMOKE/$exp.ckpt"; then
        echo "ckpt-smoke: FAIL $exp: -checkpoints changed experiment output" >&2
        exit 1
    fi
    GOMAXPROCS=4 "$TMPDIR_SMOKE/paperbench" -exp "$exp" -parallel 1 -checkpoints -intra 2 |
        strip_wall >"$TMPDIR_SMOKE/$exp.ckpt_intra"
    if ! diff -u "$TMPDIR_SMOKE/$exp.plain" "$TMPDIR_SMOKE/$exp.ckpt_intra"; then
        echo "ckpt-smoke: FAIL $exp: -checkpoints -intra 2 changed experiment output" >&2
        exit 1
    fi
done
echo "ckpt-smoke: PASS (table4, vtasweep, protosweep byte-identical, with and without -intra)"
