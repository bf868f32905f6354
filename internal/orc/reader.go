package orc

import (
	"fmt"

	"repro/internal/datum"
)

// ReadStats meters reader work for the cost model.
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
}

// Reader decodes one ORC file held in memory. The promoted Footer methods
// answer metadata questions; cursors decode row groups out of data.
type Reader struct {
	*Footer
	data []byte
	// faultHook, when set, runs before every row-group decode; a non-nil
	// return aborts the decode with that error. The warehouse installs the
	// fault injector's OpDecode check here so mid-stream failures — ones the
	// open-time footer validation cannot see — are exercisable.
	faultHook func() error
}

// SetFaultHook installs a check that runs before each row-group decode.
// Cursors opened after the call observe it.
func (r *Reader) SetFaultHook(hook func() error) { r.faultHook = hook }

// OpenReader parses the file footer and returns a reader. The data slice is
// retained and must not be modified.
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

// ParseFooter validates the file framing and decodes the footer.
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
	if lenPos < 0 {
		return nil, corruptf("missing footer length")
	}
	ld := decoder{buf: data, pos: lenPos}
	footerLen := int(ld.u32())
	footerStart := lenPos - footerLen
	if footerStart < len(Magic)+1 || footerLen < 0 {
		return nil, corruptf("bad footer length %d", footerLen)
	}

	d := decoder{buf: data, pos: footerStart}
	ft := &Footer{}
	nCols := int(d.uvarint())
	if d.err != nil || nCols < 0 || nCols > 1<<20 {
		return nil, corruptf("bad column count")
	}
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
	ft.numRows = int64(d.u64())
	ft.rgRows = int(d.u32())
	nStripes := int(d.uvarint())
	if d.err != nil || nStripes < 0 || nStripes > 1<<20 {
		return nil, corruptf("bad stripe count")
	}
	for s := 0; s < nStripes; s++ {
		var sm stripeMeta
		sm.offset = d.i64()
		sm.length = d.i64()
		sm.rows = d.i64()
		nGroups := int(d.uvarint())
		if d.err != nil || nGroups < 0 || nGroups > 1<<20 {
			return nil, corruptf("bad row group count")
		}
		for g := 0; g < nGroups; g++ {
			var rg rowGroupMeta
			rg.offset = d.i64()
			rg.length = d.i64()
			rg.rows = int32(d.u32())
			rg.stats = make([]ColumnStats, nCols)
			for c := 0; c < nCols; c++ {
				rg.stats[c] = decodeStats(&d, ft.schema.Columns[c].Type)
			}
			sm.rowGroups = append(sm.rowGroups, rg)
		}
		ft.stripes = append(ft.stripes, sm)
	}
	if d.err != nil {
		return nil, d.err
	}
	return ft, nil
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
// (NextBatch); the batch path copies decoded row-group columns directly
// into the destination vectors with no per-row allocation.
type Cursor struct {
	r        *Reader
	cols     []int       // schema indexes of selected columns
	selected map[int]int // schema index -> output index
	include  []bool
	stats    *ReadStats

	// iteration state
	flat      []flatGroup
	groupIdx  int
	decoded   [][]datum.Datum // per selected column, decoded group values
	rowInGrp  int
	groupRows int
	// valScratch is the reused non-null value buffer for chunk decoding.
	valScratch []datum.Datum
}

type flatGroup struct {
	stripe int
	group  int
}

// NewCursor opens a cursor over the named columns. sarg may be nil. stats
// may be nil; when non-nil the cursor adds its work to it.
func (r *Reader) NewCursor(columns []string, sarg *SARG, stats *ReadStats) (*Cursor, error) {
	c := &Cursor{r: r, stats: stats, selected: make(map[int]int, len(columns))}
	for outIdx, name := range columns {
		ci := r.schema.ColumnIndex(name)
		if ci < 0 {
			return nil, fmt.Errorf("orc: no column %q", name)
		}
		c.cols = append(c.cols, ci)
		c.selected[ci] = outIdx
	}
	for si := range r.stripes {
		for gi := range r.stripes[si].rowGroups {
			c.flat = append(c.flat, flatGroup{si, gi})
		}
	}
	c.include = make([]bool, len(c.flat))
	for i, fg := range c.flat {
		rg := &r.stripes[fg.stripe].rowGroups[fg.group]
		c.include[i] = sarg == nil || sarg.mayMatch(r.schema, rg.stats)
	}
	c.groupIdx = -1
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
	for {
		if c.groupIdx >= 0 && c.rowInGrp < c.groupRows {
			row := make([]datum.Datum, len(c.cols))
			for i := range c.cols {
				row[i] = c.decoded[i][c.rowInGrp]
			}
			c.rowInGrp++
			if c.stats != nil {
				c.stats.RowsRead++
			}
			return row, nil
		}
		// advance to next included group
		c.groupIdx++
		if c.groupIdx >= len(c.flat) {
			return nil, nil
		}
		if !c.include[c.groupIdx] {
			if c.stats != nil {
				c.stats.RowGroupsSkipped++
			}
			continue
		}
		if err := c.decodeGroup(c.groupIdx); err != nil {
			return nil, err
		}
	}
}

// NextBatch fills dst's column vectors with up to max rows and returns how
// many it produced; 0 with a nil error means the cursor is exhausted. dst
// must hold one vector per selected column, each with capacity >= max.
// Batches cross row-group boundaries, so callers see fixed-size batches
// regardless of group geometry. Decoded group columns are copied into dst
// column-wise — no per-row allocation.
func (c *Cursor) NextBatch(dst [][]datum.Datum, max int) (int, error) {
	if len(dst) < len(c.cols) {
		return 0, fmt.Errorf("orc: batch has %d columns, cursor selects %d", len(dst), len(c.cols))
	}
	total := 0
	for total < max {
		if c.groupIdx >= 0 && c.rowInGrp < c.groupRows {
			take := c.groupRows - c.rowInGrp
			if take > max-total {
				take = max - total
			}
			for i := range c.cols {
				copy(dst[i][total:total+take], c.decoded[i][c.rowInGrp:c.rowInGrp+take])
			}
			c.rowInGrp += take
			total += take
			if c.stats != nil {
				c.stats.RowsRead += int64(take)
			}
			continue
		}
		// advance to next included group
		c.groupIdx++
		if c.groupIdx >= len(c.flat) {
			break
		}
		if !c.include[c.groupIdx] {
			if c.stats != nil {
				c.stats.RowGroupsSkipped++
			}
			continue
		}
		if err := c.decodeGroup(c.groupIdx); err != nil {
			return total, err
		}
	}
	return total, nil
}

// decodeGroup decodes the selected columns of one row group. Columns are
// stored as length-prefixed chunks, so unselected columns are skipped
// without decoding and without charging their bytes to the read meter —
// column pruning pays off exactly as it does on real columnar storage.
// Decode buffers are reused across groups: callers copy values out of
// c.decoded before the next decodeGroup call.
func (c *Cursor) decodeGroup(flatIdx int) error {
	if c.r.faultHook != nil {
		if err := c.r.faultHook(); err != nil {
			return err
		}
	}
	fg := c.flat[flatIdx]
	stripe := &c.r.stripes[fg.stripe]
	rg := &stripe.rowGroups[fg.group]
	start := stripe.offset + rg.offset
	if start < 0 || start+rg.length > int64(len(c.r.data)) {
		return corruptf("row group out of bounds")
	}
	d := decoder{buf: c.r.data[:start+rg.length], pos: int(start)}
	n := int(rg.rows)

	if c.decoded == nil {
		c.decoded = make([][]datum.Datum, len(c.cols))
	}
	for i := range c.decoded {
		if cap(c.decoded[i]) >= n {
			c.decoded[i] = c.decoded[i][:n]
		} else {
			c.decoded[i] = make([]datum.Datum, n)
		}
	}

	var bytesRead int64
	for ci, col := range c.r.schema.Columns {
		chunkLen := int(d.uvarint())
		if d.err != nil {
			return d.err
		}
		outIdx, want := c.selected[ci]
		if !want {
			d.take(chunkLen)
			if d.err != nil {
				return d.err
			}
			continue
		}
		bytesRead += int64(chunkLen)
		chunkBytes := d.take(chunkLen)
		if d.err != nil {
			return d.err
		}
		vals, err := decodeChunk(chunkBytes, col.Type, n, c.decoded[outIdx], c.valScratch)
		if err != nil {
			return err
		}
		c.valScratch = vals
	}
	if c.stats != nil {
		c.stats.RowGroupsRead++
		c.stats.BytesRead += bytesRead
	}
	c.rowInGrp = 0
	c.groupRows = n
	return nil
}

// decodeChunk decodes one column chunk (null bitmap + encoding tag +
// values) into out, which has length n. scratch is an optional reusable
// buffer for the non-null value stream; the (possibly grown) buffer is
// returned so callers can keep it across chunks.
func decodeChunk(chunk []byte, t datum.Type, n int, out, scratch []datum.Datum) ([]datum.Datum, error) {
	d := decoder{buf: chunk}
	bitmap := d.take((n + 7) / 8)
	if d.err != nil {
		return scratch, d.err
	}
	isNull := func(i int) bool { return bitmap[i/8]&(1<<uint(i%8)) != 0 }
	tag := d.take(1)
	if d.err != nil {
		return scratch, d.err
	}

	// Decode the non-null value stream.
	nonNull := 0
	for i := 0; i < n; i++ {
		if !isNull(i) {
			nonNull++
		}
	}
	vals := scratch[:0]
	if cap(vals) < nonNull {
		vals = make([]datum.Datum, 0, nonNull)
	}
	switch t {
	case datum.TypeInt64:
		switch tag[0] {
		case encPlain:
			for k := 0; k < nonNull; k++ {
				vals = append(vals, datum.Int(d.i64()))
			}
		case encRLE:
			runs := int(d.uvarint())
			for r := 0; r < runs; r++ {
				count := int(d.uvarint())
				v := d.i64()
				if d.err != nil || count < 0 || len(vals)+count > nonNull {
					return vals, corruptf("bad RLE run")
				}
				for k := 0; k < count; k++ {
					vals = append(vals, datum.Int(v))
				}
			}
		default:
			return vals, corruptf("unknown int encoding %d", tag[0])
		}
	case datum.TypeFloat64:
		for k := 0; k < nonNull; k++ {
			vals = append(vals, datum.Float(d.f64()))
		}
	case datum.TypeString:
		switch tag[0] {
		case encPlain:
			for k := 0; k < nonNull; k++ {
				vals = append(vals, datum.Str(d.str()))
			}
		case encDict:
			dictSize := int(d.uvarint())
			if d.err != nil || dictSize < 0 || dictSize > nonNull {
				return vals, corruptf("bad dictionary size")
			}
			dict := make([]string, dictSize)
			for k := range dict {
				dict[k] = d.str()
			}
			for k := 0; k < nonNull; k++ {
				idx := int(d.uvarint())
				if d.err != nil || idx < 0 || idx >= dictSize {
					return vals, corruptf("dictionary index out of range")
				}
				vals = append(vals, datum.Str(dict[idx]))
			}
		default:
			return vals, corruptf("unknown string encoding %d", tag[0])
		}
	case datum.TypeBool:
		if tag[0] != encBitpacked {
			return vals, corruptf("unknown bool encoding %d", tag[0])
		}
		packed := d.take((nonNull + 7) / 8)
		if d.err != nil {
			return vals, d.err
		}
		for k := 0; k < nonNull; k++ {
			vals = append(vals, datum.Bool(packed[k/8]&(1<<uint(k%8)) != 0))
		}
	}
	if d.err != nil {
		return vals, d.err
	}
	if len(vals) != nonNull {
		return vals, corruptf("value stream truncated: %d of %d", len(vals), nonNull)
	}

	// Scatter values over nulls.
	vi := 0
	for i := 0; i < n; i++ {
		if isNull(i) {
			out[i] = datum.NullOf(t)
			continue
		}
		out[i] = vals[vi]
		vi++
	}
	return vals, nil
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
