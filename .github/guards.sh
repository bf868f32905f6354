#!/usr/bin/env bash
# Name guards: one table of names and imports that must not come back.
#
# Each row is (scope, pattern, allowed, why). A scope is either a set of
# files, whose lines are searched, or a listing (a package's dependencies or
# imports), whose own lines are. allowed is an extended regex of the files or
# listing lines exempt from the row ("-" exempts nothing); pattern is an
# extended regex. A row fails when a line in scope outside the allowed paths
# matches, and prints the lines with its reason. Non-test files are those
# `go list` names in GoFiles, which excludes _test.go. Listings use -e, so a
# forbidden import that also closes an import cycle is still listed.
#
# Run from the module root: bash .github/guards.sh
set -u

gofiles() { go list -f '{{range .GoFiles}}{{$.Dir}}/{{.}}{{"\n"}}{{end}}' "$@"; }

# list prints a scope's files or lines.
list() {
	case $1 in
	module) gofiles ./... ;;                       # non-test files of the module
	internal+cmd) gofiles ./internal/... ./cmd/... ;; # non-test files outside bench/, examples/ and the root
	core) gofiles ./internal/core ;;
	kernel) printf '%s\n' internal/sjson/parser.go internal/sjson/extract.go ;;
	registry) printf '%s\n' internal/core/registry.go ;;
	all-go) find . -name '*.go' ;;                 # every Go file, tests and testdata included
	serving-deps) go list -e -deps ./cmd/maxson-serve ./cmd/maxson-sql ./cmd/maxson-daily ;;
	warehouse-deps) go list -e -deps ./internal/warehouse ;;
	serving-imports)
		go list -e -f '{{.ImportPath}}: {{join .Imports " "}}' \
			./internal/sqlengine ./internal/core ./internal/scanshare ./internal/serve ./internal/experiments/lru ./internal/warehouse ./cmd/...
		;;
	*) echo "guards.sh: unknown scope $1" >&2 && exit 2 ;;
	esac
}

fail=0
row() {
	local scope=$1 pattern=$2 allowed=$3 why=$4 hits
	[ "$allowed" = - ] && allowed='^$'
	case $scope in
	*-deps | *-imports) hits=$(list "$scope" | grep -vE -- "$allowed" | grep -E -- "$pattern") ;;
	*) hits=$(list "$scope" | grep -vE -- "$allowed" | xargs -r grep -nHE -- "$pattern") ;;
	esac
	if [ -n "$hits" ]; then
		printf '%s\n%s\n\n' "$why" "$hits"
		fail=1
	fi
}

# One JSON extraction lane: the tree-parse and structural-index evaluators
# and Fig 14's online LRU value cache serve the paper's figures only.
row serving-deps 'internal/mison|internal/experiments/(baseline|lru)' - \
	"a serving command links a baseline"
# One batch extraction (DESIGN.md, "JSON extraction"): outside jsonpath and
# sqlengine only the scorer and the experiments open an extractor.
row module '\bjsonpath\.NewExtractor\b' '/internal/jsonpath/|/internal/sqlengine/|/internal/core/scoring\.go$|/internal/experiments/' \
	"an extractor is opened outside the batch extraction"
row module '\b(fallbackRowSource|fbGroup|extractBatch)\b' - \
	"a second batch extraction loop is back"
# The cost model stays with the figures: the engine, cacher, scorer and
# EXPLAIN report counters, not simulated time.
row module '\b(CostModel|PhaseBreakdown|SimulatedTime|SimulatedPlanTime|ParseNsSpent)\b' '/internal/experiments/|/internal/lint/testdata/' \
	"the cost model is named outside internal/experiments"
row serving-deps '^repro/internal/experiments$' - \
	"a serving command links internal/experiments"
# One unsafe site (DESIGN.md, "Storage-read ownership"): value-stream
# strings are views of the part file, and that argument covers one file.
row module '^(import )?[[:space:]]*([[:alnum:]_.]+ )?"unsafe"$' '/internal/orc/decoder\.go$' \
	"unsafe imported outside internal/orc/decoder.go"
# Parser arenas stay behind jsonpath.Extractor: a *sjson.Value can only reach
# a package that imports internal/sjson.
row serving-imports ' repro/internal/sjson( |$)' - \
	"serving package imports internal/sjson"
# The kernel never copies document bytes (DESIGN.md, "JSON extraction").
row kernel 'string\(p\.data\[|\[\]byte\(' - \
	"the extraction kernel copies document bytes"
# One owner for pooled row batches (DESIGN.md, "RowBatch ownership").
row module '\b([gG]etRowBatch|[pP]utRowBatch|batchPool)\b' '/internal/sqlengine/batch\.go$' \
	"a pooled row batch is taken or returned outside batch.go"
# One executor mode (DESIGN.md, "One executor mode"): only orc.Cursor reads
# a row at a time.
row module '\bRowSource\b|rowSourceAdapter|asBatchSource|RowAtATime' '/internal/lint/testdata/' \
	"the row-at-a-time executor lane is named again"
row module '^func \([^)]*\) Next\(\) \(\[\]datum\.Datum, error\)' '/internal/lint/testdata/|/internal/orc/' \
	"a row-returning Next is declared outside internal/orc"
# One aggregation table per partition, pooled in exec.go (DESIGN.md,
# "Aggregation state").
row module '\b(aggState|newAggState)\b' '/internal/lint/testdata/' \
	"a per-group aggregation state object is back"
row module '\b(aggTablePool|getAggTable|putAggTable)\b' '/internal/sqlengine/exec\.go$' \
	"a pooled aggregation table is taken or returned outside exec.go"
row all-go '\bnewAggTable\b' - \
	"newAggTable is back"
# Metric names are constants (DESIGN.md, "Metric names"): an explicit
# conversion is the one way around obs.Name.
row module '\bobs\.Name\(' '/internal/obs/[^/]*$|/internal/lint/testdata/' \
	"a string is converted to an obs.Name outside internal/obs"
# One shared-pass mode (DESIGN.md, "When a query waits").
row module '\b(Fingerprinter|ScanFingerprint|buildBroadcast)\b' - \
	"a second shared-pass mode is back"
# The serving manifests are the cache's only lifecycle state (DESIGN.md,
# "Cache generations").
row module '\b(pendingDrop|dropGeneration|ClearQuarantine|IsQuarantined|quarantineKey|StateSnapshot|RestoreState)\b' - \
	"a second record of which cache tables live is back"
# Cached splits are valid by version; no timestamp decides. CacheEntry.Invalid
# stays declared, unset, for bench/e2e.
row internal+cmd 'RewriteTime|CreatedAt|MarkInvalid|CachedAt|\.Invalid\b' - \
	"cache validity is decided by something other than the manifest"
# Extract at ingest: the warehouse fires an append callback that core
# installs.
row warehouse-deps '^repro/internal/core$' - \
	"internal/warehouse imports internal/core"
# A path's value depends only on its document (DESIGN.md, "The
# malformed-document contract"), so any split may be carried.
row core '\bCarry\b' - \
	"a split carry bit is back in internal/core"
# The cache registry is one immutable snapshot behind an atomic pointer
# (DESIGN.md, "Lock hierarchy"): readers take no lock.
row registry '\bsync\.(RW)?Mutex\b' - \
	"the cache registry declares a mutex"
# Cache validity goes by dfs version alone, so the file system keeps no clock.
row module '\bdfs\.WithClock\b|\b[fF][sS](\(\))?\.ModTime\(|\*FS\) ModTime\(' - \
	"the file system keeps a modification time again"

exit $fail
