package orc

import (
	"fmt"

	"repro/internal/datum"
)

// ReadStats meters reader work for the query engine's metrics.
type ReadStats struct {
	BytesRead        int64
	RowsRead         int64
	RowGroupsRead    int64
	RowGroupsSkipped int64
}

// Footer is the parsed and validated tail of one file: schema, row count and
// the stripe and row-group directory with its statistics. It holds no
// reference to the file's bytes and is immutable after ParseFooter, so one
// Footer may be shared by any number of Readers over the same content.
type Footer struct {
	schema  Schema
	numRows int64
	rgRows  int
	stripes []stripeMeta
	groups  []groupRef // every row group in file order
}

// groupRef names one row group by stripe and position within it.
type groupRef struct {
	stripe int
	group  int
}

// Reader decodes one ORC file held in memory. The promoted Footer methods
// answer metadata questions; cursors decode row groups out of data, and the
// string values they hand out are views of data, not copies (decoder.view).
type Reader struct {
	*Footer
	data []byte
	// faultHook, when set, runs before a cursor enters a row group; a non-nil
	// return aborts the decode with that error. The warehouse installs the
	// fault injector's OpDecode check here so mid-stream failures — ones the
	// open-time footer validation cannot see — are exercisable.
	faultHook func() error
}

// SetFaultHook installs a check that runs before each row-group decode.
// Cursors opened after the call observe it.
func (r *Reader) SetFaultHook(hook func() error) { r.faultHook = hook }

// OpenReader parses the file footer and returns a reader. The data slice is
// retained — by the reader and by every string value read through it — and
// must not be modified.
func OpenReader(data []byte) (*Reader, error) {
	ft, err := ParseFooter(data)
	if err != nil {
		return nil, err
	}
	return ft.NewReader(data), nil
}

// NewReader returns a reader over data, which must be the exact bytes the
// footer was parsed from (the warehouse guarantees it by dfs version). The
// slice is retained and must not be modified. Each call returns a fresh
// Reader, so fault hooks stay per open.
func (ft *Footer) NewReader(data []byte) *Reader { return &Reader{Footer: ft, data: data} }

// ParseFooter validates the file framing and decodes the footer. Beyond the
// framing it checks what the directory claims against the file and against
// itself — stripes lie between the head magic and the footer, row groups
// inside their stripe, row counts are non-negative and add up — so a cursor
// never meets an extent or a count the footer did not vouch for.
func ParseFooter(data []byte) (*Footer, error) {
	tailMagicLen := len(Magic) + 1 // uvarint length prefix (1 byte for len 4)
	if len(data) < len(Magic)+4+tailMagicLen {
		return nil, corruptf("file too small (%d bytes)", len(data))
	}
	head := decoder{buf: data}
	if head.str() != Magic {
		return nil, corruptf("bad head magic")
	}
	tail := decoder{buf: data, pos: len(data) - tailMagicLen}
	if tail.str() != Magic || tail.err != nil {
		return nil, corruptf("bad tail magic")
	}
	lenPos := len(data) - tailMagicLen - 4
	ld := decoder{buf: data, pos: lenPos}
	footerLen := int64(ld.u32())
	bodyStart := int64(len(Magic) + 1)
	footerStart := int64(lenPos) - footerLen
	if footerStart < bodyStart {
		return nil, corruptf("bad footer length %d", footerLen)
	}

	d := decoder{buf: data[:lenPos], pos: int(footerStart)}
	ft := &Footer{}
	nCols := d.count(1<<20, "column count")
	for i := 0; i < nCols; i++ {
		name := d.str()
		tb := d.take(1)
		if d.err != nil {
			return nil, d.err
		}
		t := datum.Type(tb[0])
		if t > datum.TypeBool {
			return nil, corruptf("bad column type %d", tb[0])
		}
		ft.schema.Columns = append(ft.schema.Columns, Column{Name: name, Type: t})
	}
	ft.numRows = d.i64()
	if nCols == 0 && ft.numRows != 0 {
		// Rows without columns take no bytes, so nothing in the file would
		// bound a cursor walking them.
		return nil, corruptf("file claims %d rows and has no columns", ft.numRows)
	}
	ft.rgRows = int(d.u32())
	nStripes := d.count(1<<20, "stripe count")
	var fileRows int64
	for s := 0; s < nStripes; s++ {
		var sm stripeMeta
		sm.offset = d.i64()
		sm.length = d.i64()
		sm.rows = d.i64()
		nGroups := d.count(1<<20, "row group count")
		if d.err != nil {
			return nil, d.err
		}
		if !within(sm.offset, sm.length, bodyStart, footerStart) {
			return nil, corruptf("stripe %d [%d,+%d) outside the file body", s, sm.offset, sm.length)
		}
		var stripeRows int64
		for g := 0; g < nGroups; g++ {
			var rg rowGroupMeta
			rg.offset = d.i64()
			rg.length = d.i64()
			rg.rows = int32(d.u32())
			rg.stats = make([]ColumnStats, nCols)
			for c := 0; c < nCols; c++ {
				rg.stats[c] = decodeStats(&d, ft.schema.Columns[c].Type)
			}
			if d.err != nil {
				return nil, d.err
			}
			if rg.rows < 0 {
				return nil, corruptf("row group %d/%d has %d rows", s, g, rg.rows)
			}
			if !within(rg.offset, rg.length, 0, sm.length) {
				return nil, corruptf("row group %d/%d [%d,+%d) outside its stripe", s, g, rg.offset, rg.length)
			}
			stripeRows += int64(rg.rows)
			sm.rowGroups = append(sm.rowGroups, rg)
			ft.groups = append(ft.groups, groupRef{stripe: s, group: g})
		}
		if stripeRows != sm.rows {
			return nil, corruptf("stripe %d claims %d rows, its row groups hold %d", s, sm.rows, stripeRows)
		}
		fileRows += stripeRows
		ft.stripes = append(ft.stripes, sm)
	}
	if d.err != nil {
		return nil, d.err
	}
	if fileRows != ft.numRows {
		return nil, corruptf("file claims %d rows, its stripes hold %d", ft.numRows, fileRows)
	}
	return ft, nil
}

// within reports whether [off, off+length) lies inside [lo, hi), without
// forming off+length (both come from the file and may be anything).
func within(off, length, lo, hi int64) bool {
	return off >= lo && off <= hi && length >= 0 && length <= hi-off
}

// Schema returns the file schema.
func (ft *Footer) Schema() Schema { return ft.schema }

// NumRows returns the total row count.
func (ft *Footer) NumRows() int64 { return ft.numRows }

// NumStripes returns the stripe count; predicate pushdown across paired
// tables applies only to single-stripe files.
func (ft *Footer) NumStripes() int { return len(ft.stripes) }

// NumRowGroups returns the total row-group count across stripes.
func (ft *Footer) NumRowGroups() int {
	n := 0
	for _, s := range ft.stripes {
		n += len(s.rowGroups)
	}
	return n
}

// RowGroupStats returns the statistics of the named column for every row
// group in file order, or an error if the column is absent.
func (ft *Footer) RowGroupStats(column string) ([]ColumnStats, error) {
	ci := ft.schema.ColumnIndex(column)
	if ci < 0 {
		return nil, fmt.Errorf("orc: no column %q", column)
	}
	var out []ColumnStats
	for _, s := range ft.stripes {
		for _, rg := range s.rowGroups {
			out = append(out, rg.stats[ci])
		}
	}
	return out, nil
}

// Cursor iterates selected columns of a file, skipping row groups ruled
// out by a SARG or by an externally supplied mask. It serves rows either
// one at a time (Next) or batch-at-a-time into caller-owned column vectors
// (NextBatch). Both decode through the same per-column chunk iterators,
// which write each value exactly once, into the slice the caller reads; the
// cursor holds no decoded values of its own, so its memory is a few words
// per column whatever the row-group size. String values alias the reader's
// data (see decoder.view for who may keep one).
type Cursor struct {
	r       *Reader
	cols    []int // schema indexes of the selected columns
	include []bool
	stats   *ReadStats

	// iteration state
	groupIdx  int         // into Footer.groups; -1 before the first group
	rowInGrp  int         // rows of the current group already handed out
	groupRows int         // rows in the current group
	chunks    [][]byte    // per schema column, the current group's chunk
	iters     []chunkIter // per selected column
	err       error       // the first decode error; the cursor stays failed
}

// NewCursor opens a cursor over the named columns. sarg may be nil. stats
// may be nil; when non-nil the cursor adds its work to it.
func (r *Reader) NewCursor(columns []string, sarg *SARG, stats *ReadStats) (*Cursor, error) {
	c := &Cursor{r: r, stats: stats, groupIdx: -1,
		cols:   make([]int, len(columns)),
		iters:  make([]chunkIter, len(columns)),
		chunks: make([][]byte, len(r.schema.Columns)),
	}
	for i, name := range columns {
		ci := r.schema.ColumnIndex(name)
		if ci < 0 {
			return nil, fmt.Errorf("orc: no column %q", name)
		}
		c.cols[i] = ci
	}
	c.include = make([]bool, len(r.groups))
	for i, g := range r.groups {
		c.include[i] = sarg == nil || sarg.mayMatch(r.schema, r.stripes[g.stripe].rowGroups[g.group].stats)
	}
	return c, nil
}

// RowGroupMask returns the cursor's current include mask (true = read), one
// entry per row group in file order. This is the skip array the CacheReader
// shares with the PrimaryReader.
func (c *Cursor) RowGroupMask() []bool {
	out := make([]bool, len(c.include))
	copy(out, c.include)
	return out
}

// SetRowGroupMask intersects the cursor's mask with an externally computed
// one. It must be called before the first Next. The mask length must equal
// the row-group count.
func (c *Cursor) SetRowGroupMask(mask []bool) error {
	if len(mask) != len(c.include) {
		return fmt.Errorf("orc: mask length %d != row groups %d", len(mask), len(c.include))
	}
	if c.groupIdx >= 0 {
		return fmt.Errorf("orc: SetRowGroupMask after iteration started")
	}
	for i := range c.include {
		c.include[i] = c.include[i] && mask[i]
	}
	return nil
}

// Next returns the next row's selected column values, or nil when the
// cursor is exhausted. The returned slice is freshly allocated and the
// caller's to keep; batch consumers that want no per-row allocation use
// NextBatch.
func (c *Cursor) Next() ([]datum.Datum, error) {
	left, err := c.groupLeft()
	if err != nil || left == 0 {
		return nil, err
	}
	row := make([]datum.Datum, len(c.cols))
	for i := range c.iters {
		if err := c.iters[i].fill(row[i : i+1]); err != nil {
			c.err = err
			return nil, err
		}
	}
	c.advance(1)
	return row, nil
}

// NextBatch fills dst's column vectors with up to max rows and returns how
// many it produced; 0 with a nil error means the cursor is exhausted. dst
// must hold one vector per selected column, each with capacity >= max.
// Batches cross row-group boundaries, so callers see fixed-size batches
// regardless of group geometry. Values are decoded from the file straight
// into dst — no staging copy, and no allocation once the cursor is open
// (a dictionary larger than any before it grows the cursor's one).
func (c *Cursor) NextBatch(dst [][]datum.Datum, max int) (int, error) {
	if len(dst) < len(c.cols) {
		return 0, fmt.Errorf("orc: batch has %d columns, cursor selects %d", len(dst), len(c.cols))
	}
	total := 0
	for total < max {
		take, err := c.groupLeft()
		if err != nil {
			return total, err
		}
		if take == 0 {
			break
		}
		if take > max-total {
			take = max - total
		}
		for i := range c.iters {
			if err := c.iters[i].fill(dst[i][total : total+take]); err != nil {
				c.err = err
				return total, err
			}
		}
		c.advance(take)
		total += take
	}
	return total, nil
}

// advance records that n more rows of the current group were handed out.
func (c *Cursor) advance(n int) {
	c.rowInGrp += n
	if c.stats != nil {
		c.stats.RowsRead += int64(n)
	}
}

// groupLeft returns how many rows the current row group still holds,
// entering the next included group when it holds none; 0 means the cursor
// is exhausted.
func (c *Cursor) groupLeft() (int, error) {
	for c.err == nil && c.rowInGrp == c.groupRows {
		if c.groupIdx+1 >= len(c.include) {
			return 0, nil
		}
		c.groupIdx++
		if !c.include[c.groupIdx] {
			if c.stats != nil {
				c.stats.RowGroupsSkipped++
			}
			continue
		}
		c.err = c.enterGroup(c.r.groups[c.groupIdx])
	}
	return c.groupRows - c.rowInGrp, c.err
}

// enterGroup aims the column iterators at one row group. Columns are
// stored as length-prefixed chunks, so unselected columns are stepped over
// without decoding and without charging their bytes to the read meter —
// column pruning pays off exactly as it does on real columnar storage. The
// group is metered here, once, whether its rows are then read in one batch
// or a thousand.
func (c *Cursor) enterGroup(g groupRef) error {
	if c.r.faultHook != nil {
		if err := c.r.faultHook(); err != nil {
			return err
		}
	}
	stripe := &c.r.stripes[g.stripe]
	rg := &stripe.rowGroups[g.group]
	// ParseFooter vouched for both extents against the bytes it saw; data is
	// checked again because NewReader takes the caller's word that these
	// are those bytes.
	start := stripe.offset + rg.offset
	if !within(start, rg.length, 0, int64(len(c.r.data))) {
		return corruptf("row group out of bounds")
	}
	d := decoder{buf: c.r.data[:start+rg.length], pos: int(start)}
	for ci := range c.chunks {
		c.chunks[ci] = d.take(d.uvarint())
	}
	if d.err != nil {
		return d.err
	}
	var bytesRead int64
	for i, ci := range c.cols {
		bytesRead += int64(len(c.chunks[ci]))
		if err := c.iters[i].reset(c.chunks[ci], c.r.schema.Columns[ci].Type, int(rg.rows)); err != nil {
			return err
		}
	}
	if c.stats != nil {
		c.stats.RowGroupsRead++
		c.stats.BytesRead += bytesRead
	}
	c.rowInGrp, c.groupRows = 0, int(rg.rows)
	return nil
}

// ReadColumn reads one full column (no SARG) into a slice.
func (r *Reader) ReadColumn(name string, stats *ReadStats) ([]datum.Datum, error) {
	cur, err := r.NewCursor([]string{name}, nil, stats)
	if err != nil {
		return nil, err
	}
	out := make([]datum.Datum, 0, r.numRows)
	for {
		row, err := cur.Next()
		if err != nil {
			return nil, err
		}
		if row == nil {
			return out, nil
		}
		out = append(out, row[0])
	}
}
