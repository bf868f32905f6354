// Package pathkey defines the identity of a JSONPath occurrence in the
// warehouse. The paper locates a parsed field by four coordinates —
// database name, table name, column name, and JSONPath — and every layer of
// Maxson (collector statistics, predictor features, scoring, cache naming)
// keys on that quadruple.
package pathkey

import (
	"cmp"
	"strings"
)

// Key identifies one JSONPath at one storage location.
type Key struct {
	DB     string
	Table  string
	Column string
	Path   string // canonical JSONPath text (jsonpath.Path.Canonical())
}

// String renders db.table.column:path.
func (k Key) String() string {
	return k.DB + "." + k.Table + "." + k.Column + ":" + k.Path
}

// Sanitized renders the key as a storage-safe identifier: the cache field
// naming scheme from the paper's §IV-C (column name + JSONPath).
func (k Key) Sanitized() string {
	return k.Column + "__" + strings.Trim(sanitizer.Replace(k.Path), "_")
}

// sanitizer is built once: a Replacer costs kilobytes to build and the cacher
// names every column of every cycle through it. It is safe for concurrent use.
var sanitizer = strings.NewReplacer(
	"$", "", ".", "_", "[", "_", "]", "", "'", "", `"`, "", " ", "_",
)

// TableID renders db.table, the raw-table identity a cache table maps to.
func (k Key) TableID() string { return k.DB + "." + k.Table }

// Compare orders keys lexicographically by database, table, column, then
// path, returning -1, 0 or +1.
func Compare(a, b Key) int {
	return cmp.Or(strings.Compare(a.DB, b.DB), strings.Compare(a.Table, b.Table),
		strings.Compare(a.Column, b.Column), strings.Compare(a.Path, b.Path))
}

// Less orders keys lexicographically for deterministic iteration.
func Less(a, b Key) bool { return Compare(a, b) < 0 }
