package orc

import (
	"encoding/binary"
	"math"
	"math/bits"
	"unsafe"

	"repro/internal/datum"
)

// decoder reads the format's primitives out of buf; the first failure
// latches in err and every later read returns a zero value. pos never leaves
// [0, len(buf)], and every length read from the file is compared against the
// bytes left as a uint64 before it is narrowed to an int: a varint of 2^63 or
// more must fail the bounds test, not wrap negative and pass it.
type decoder struct {
	buf []byte
	pos int
	err error
}

func (d *decoder) fail(msg string) {
	if d.err == nil {
		d.err = corruptf("%s at offset %d", msg, d.pos)
	}
}

// left returns the bytes between pos and the end of buf.
func (d *decoder) left() uint64 { return uint64(len(d.buf) - d.pos) }

func (d *decoder) u32() uint32 {
	if d.err != nil || d.left() < 4 {
		d.fail("short u32")
		return 0
	}
	v := binary.LittleEndian.Uint32(d.buf[d.pos:])
	d.pos += 4
	return v
}

func (d *decoder) u64() uint64 {
	if d.err != nil || d.left() < 8 {
		d.fail("short u64")
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.pos:])
	d.pos += 8
	return v
}

func (d *decoder) i64() int64   { return int64(d.u64()) }
func (d *decoder) f64() float64 { return math.Float64frombits(d.u64()) }

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.pos:])
	if n <= 0 {
		d.fail("bad uvarint")
		return 0
	}
	d.pos += n
	return v
}

// count reads a uvarint element count and rejects one above limit.
func (d *decoder) count(limit uint64, what string) int {
	n := d.uvarint()
	if n > limit {
		d.fail("bad " + what)
	}
	if d.err != nil {
		return 0
	}
	return int(n)
}

func (d *decoder) bool() bool {
	if d.err != nil || d.left() < 1 {
		d.fail("short bool")
		return false
	}
	b := d.buf[d.pos]
	d.pos++
	return b != 0
}

// take returns the next n bytes as a sub-slice of buf.
func (d *decoder) take(n uint64) []byte {
	if d.err != nil || n > d.left() {
		d.fail("short bytes")
		return nil
	}
	b := d.buf[d.pos : d.pos+int(n)]
	d.pos += int(n)
	return b
}

// str reads a length-prefixed string into fresh memory. Footer, schema and
// statistics strings use it, so a Footer never references the file's bytes.
func (d *decoder) str() string { return string(d.take(d.uvarint())) }

// view reads a length-prefixed string without copying it: the result aliases
// buf. This is the package's — and the repository's — one unsafe site, used
// for value-stream strings only (plain values and dictionary entries). It
// leans on two rules. Readers are handed bytes nobody writes again: dfs never
// rewrites a stored byte (see dfs.file), a transformed or short read is a
// private copy, and OpenReader/NewReader document the slice as retained and
// not to be modified. And a view keeps the whole file alive, so no string
// made here may be reachable from anything that outlives the query — the
// engine clones string datums where rows enter a ResultSet, the writer
// clones what it keeps in statistics (DESIGN.md, "Storage-read ownership").
func (d *decoder) view() string {
	b := d.take(d.uvarint())
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// chunkIter decodes one column chunk of one row group a few values at a
// time, straight into the caller's vector. A chunk is the null bitmap, an
// encoding tag, then the encoded non-null values; the iterator carries the
// bitmap position, the RLE run remainder and the value-stream position
// between fill calls, so a batch boundary may fall anywhere inside a group.
// One chunkIter serves one selected position of the cursor for the cursor's
// lifetime, across Cursor.Reopen too: reset re-aims it at the next group's
// chunk, of whichever file and column, and reuses the dictionary's memory.
type chunkIter struct {
	typ     datum.Type
	enc     byte
	bitmap  []byte  // null bitmap, bit r set = row r is NULL
	rows    int     // rows in the group
	row     int     // next row to decode
	nonNull int     // non-null values in the chunk
	vals    int     // non-null values decoded so far (RLE and bools, whose position d.pos does not give)
	d       decoder // positioned on the next undecoded value
	// RLE ints: runs not yet opened, and the open run's remainder and value.
	runsLeft uint64
	runRem   uint64
	runVal   int64
	// Dictionary strings: views into the file, like the values themselves.
	dict []string
}

// reset aims the iterator at chunk, which holds rows rows of type t. It
// validates what can be validated without touching the values: framing, the
// encoding tag, fixed-width stream lengths, and the whole dictionary.
func (it *chunkIter) reset(chunk []byte, t datum.Type, rows int) error {
	it.typ, it.rows, it.row, it.vals = t, rows, 0, 0
	it.runsLeft, it.runRem = 0, 0
	it.d = decoder{buf: chunk}
	d := &it.d
	it.bitmap = d.take((uint64(rows) + 7) / 8)
	tag := d.take(1)
	if d.err != nil {
		return d.err
	}
	it.enc = tag[0]
	nulls := 0
	for _, b := range it.bitmap {
		nulls += bits.OnesCount8(b)
	}
	if used := rows % 8; used != 0 {
		nulls -= bits.OnesCount8(it.bitmap[len(it.bitmap)-1] >> uint(used)) // padding bits are not rows
	}
	it.nonNull = rows - nulls

	switch t {
	case datum.TypeInt64:
		switch it.enc {
		case encPlain:
			if uint64(it.nonNull)*8 > d.left() {
				return corruptf("value stream truncated: %d int values in %d bytes", it.nonNull, d.left())
			}
		case encRLE:
			it.runsLeft = d.uvarint()
		default:
			return corruptf("unknown int encoding %d", it.enc)
		}
	case datum.TypeFloat64:
		if uint64(it.nonNull)*8 > d.left() {
			return corruptf("value stream truncated: %d float values in %d bytes", it.nonNull, d.left())
		}
	case datum.TypeString:
		switch it.enc {
		case encPlain:
		case encDict:
			// An entry is at least its one length byte, which bounds the
			// dictionary's memory by the chunk's own size.
			limit := uint64(it.nonNull)
			if limit > d.left() {
				limit = d.left()
			}
			size := d.count(limit, "dictionary size")
			if cap(it.dict) < size {
				it.dict = make([]string, size)
			}
			it.dict = it.dict[:size]
			for k := range it.dict {
				it.dict[k] = d.view()
			}
		default:
			return corruptf("unknown string encoding %d", it.enc)
		}
	case datum.TypeBool:
		if it.enc != encBitpacked {
			return corruptf("unknown bool encoding %d", it.enc)
		}
		if (uint64(it.nonNull)+7)/8 > d.left() {
			return corruptf("value stream truncated: %d bool values in %d bytes", it.nonNull, d.left())
		}
	}
	return d.err
}

// isNull reports whether row r of the group is NULL.
func (it *chunkIter) isNull(r int) bool { return it.bitmap[r>>3]&(1<<uint(r&7)) != 0 }

// fill decodes the next len(dst) rows of the group into dst, NULLs in
// place. The caller never asks for more rows than the group has left.
func (it *chunkIter) fill(dst []datum.Datum) error {
	d := &it.d
	null := datum.NullOf(it.typ)
	row := it.row
	switch {
	case it.nonNull == 0:
		for k := range dst {
			dst[k] = null
		}
	case it.typ == datum.TypeInt64 && it.enc == encPlain:
		for k := range dst {
			if it.isNull(row + k) {
				dst[k] = null
				continue
			}
			dst[k] = datum.Int(d.i64())
		}
	case it.typ == datum.TypeInt64:
		for k := range dst {
			if it.isNull(row + k) {
				dst[k] = null
				continue
			}
			if it.runRem == 0 {
				if err := it.openRun(); err != nil {
					return err
				}
			}
			it.runRem--
			it.vals++
			dst[k] = datum.Int(it.runVal)
		}
	case it.typ == datum.TypeFloat64:
		for k := range dst {
			if it.isNull(row + k) {
				dst[k] = null
				continue
			}
			dst[k] = datum.Float(d.f64())
		}
	case it.typ == datum.TypeString && it.enc == encPlain:
		for k := range dst {
			if it.isNull(row + k) {
				dst[k] = null
				continue
			}
			dst[k] = datum.Str(d.view())
		}
	case it.typ == datum.TypeString:
		for k := range dst {
			if it.isNull(row + k) {
				dst[k] = null
				continue
			}
			idx := d.uvarint()
			if d.err != nil || idx >= uint64(len(it.dict)) {
				return corruptf("dictionary index out of range")
			}
			dst[k] = datum.Str(it.dict[idx])
		}
	default: // bit-packed bools, the only encoding reset lets through
		packed := d.buf[d.pos:]
		for k := range dst {
			if it.isNull(row + k) {
				dst[k] = null
				continue
			}
			dst[k] = datum.Bool(packed[it.vals>>3]&(1<<uint(it.vals&7)) != 0)
			it.vals++
		}
	}
	if d.err != nil {
		return d.err
	}
	it.row += len(dst)
	if it.row == it.rows && (it.runRem > 0 || it.runsLeft > 0) {
		return corruptf("bad RLE run: runs left over after %d values", it.nonNull)
	}
	return nil
}

// openRun reads RLE runs until one holds a value. A run longer than the
// values the chunk still owes is corrupt, as is running out of runs.
func (it *chunkIter) openRun() error {
	d := &it.d
	for it.runRem == 0 {
		if it.runsLeft == 0 {
			return corruptf("value stream truncated: %d of %d", it.vals, it.nonNull)
		}
		it.runsLeft--
		count := d.uvarint()
		it.runVal = d.i64()
		if d.err != nil || count > uint64(it.nonNull-it.vals) {
			return corruptf("bad RLE run")
		}
		it.runRem = count
	}
	return nil
}
