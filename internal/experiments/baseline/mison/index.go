// Package mison implements a structural-index JSON projector in the style of
// Mison (Li et al., VLDB 2017), the fast parser the paper compares against
// in Fig 15.
//
// Instead of materializing a document tree, it builds leveled positional
// indexes of structural characters (colons, commas, braces) using 64-bit
// word bitmaps — a software simulation of Mison's SIMD bitmap construction —
// and then projects only the queried JSONPaths directly out of the raw
// bytes. A speculation cache remembers each field's ordinal position among
// its level's colons, so documents with a stable schema skip the key search
// entirely; schema drift causes speculation misses and re-searches, which is
// exactly the behaviour that makes caching win on schema-varying data in the
// paper's Fig 15 discussion.
package mison

import (
	"math/bits"
	"sort"
)

// index holds leveled structural positions for one document.
//
// colons[l] lists byte offsets of ':' characters whose surrounding object is
// nested at level l+1 (level 1 = members of the top-level object).
// seps[l] lists, in document order, the offsets of ',' characters at that
// level and of the '}' or ']' characters that close a level-(l+1) container;
// together they delimit value spans.
type index struct {
	colons [][]int32
	seps   [][]int32
}

// IndexStats meters the bitmap construction work for the cost model.
type IndexStats struct {
	BytesIndexed  int64 // bytes scanned while building bitmaps
	WordsScanned  int64 // 64-byte words processed
	ColonsIndexed int64 // structural colons recorded
}

// buildIndex scans data once, building leveled colon/separator indexes down
// to maxLevel. Structural characters inside JSON strings are masked out
// using the quote/backslash bitmap technique from the Mison paper.
func buildIndex(data []byte, maxLevel int, stats *IndexStats) index {
	if maxLevel < 1 {
		maxLevel = 1
	}
	idx := index{
		colons: make([][]int32, maxLevel),
		seps:   make([][]int32, maxLevel),
	}
	nWords := (len(data) + 63) / 64
	level := 0
	inString := false // carries across words

	for w := 0; w < nWords; w++ {
		base := w * 64
		end := base + 64
		if end > len(data) {
			end = len(data)
		}
		chunk := data[base:end]

		// Phase 1: build per-word character bitmaps (simulated SIMD compares).
		var bsBits, quoteBits, colonBits, commaBits, openBits, closeBits uint64
		for i := 0; i < len(chunk); i++ {
			bit := uint64(1) << uint(i)
			switch chunk[i] {
			case '\\':
				bsBits |= bit
			case '"':
				quoteBits |= bit
			case ':':
				colonBits |= bit
			case ',':
				commaBits |= bit
			case '{', '[':
				openBits |= bit
			case '}', ']':
				closeBits |= bit
			}
		}

		// Phase 2: drop quotes escaped by an odd-length backslash run.
		// A run that starts at the previous word boundary cannot occur for
		// well-formed keys/values produced by the warehouse writers, but we
		// handle the common in-word case plus a byte-wise fallback at the
		// boundary for robustness.
		escaped := escapedPositions(bsBits)
		if w > 0 && quoteBits&1 != 0 && trailingBackslashRunOdd(data, base) {
			escaped |= 1
		}
		structuralQuotes := quoteBits &^ escaped

		// Phase 3: string mask via prefix-XOR over the quote bitmap. A bit is
		// set for the opening quote and every byte up to (excluding) the
		// closing quote, so structural characters inside literals are masked.
		stringMask := prefixXOR(structuralQuotes)
		if inString {
			stringMask = ^stringMask
		}
		// The state entering the next word flips once per unescaped quote.
		if bits.OnesCount64(structuralQuotes)%2 == 1 {
			inString = !inString
		}

		// Phase 4: mask structural characters found inside strings and walk
		// the remaining set bits in order, tracking nesting level.
		structural := (colonBits | commaBits | openBits | closeBits) &^ stringMask
		for m := structural; m != 0; m &= m - 1 {
			i := bits.TrailingZeros64(m)
			pos := int32(base + i)
			bit := uint64(1) << uint(i)
			switch {
			case openBits&bit != 0:
				level++
			case closeBits&bit != 0:
				if level >= 1 && level <= maxLevel {
					idx.seps[level-1] = append(idx.seps[level-1], pos)
				}
				level--
			case colonBits&bit != 0:
				if level >= 1 && level <= maxLevel {
					idx.colons[level-1] = append(idx.colons[level-1], pos)
					if stats != nil {
						stats.ColonsIndexed++
					}
				}
			case commaBits&bit != 0:
				if level >= 1 && level <= maxLevel {
					idx.seps[level-1] = append(idx.seps[level-1], pos)
				}
			}
		}

		if stats != nil {
			stats.WordsScanned++
		}
	}
	if stats != nil {
		stats.BytesIndexed += int64(len(data))
	}
	return idx
}

// escapedPositions returns a bitmap of positions whose character is escaped
// by a backslash run ending immediately before it (odd run length), within
// one word. Mison computes this with carry-less multiplication; the loop
// below is the scalar equivalent.
func escapedPositions(bsBits uint64) uint64 {
	var escaped uint64
	run := 0
	for i := 0; i < 64; i++ {
		bit := uint64(1) << uint(i)
		if bsBits&bit != 0 {
			run++
			continue
		}
		if run%2 == 1 {
			escaped |= bit
		}
		run = 0
	}
	return escaped
}

// trailingBackslashRunOdd reports whether data[:pos] ends with an odd-length
// run of backslashes.
func trailingBackslashRunOdd(data []byte, pos int) bool {
	run := 0
	for i := pos - 1; i >= 0 && data[i] == '\\'; i-- {
		run++
	}
	return run%2 == 1
}

// prefixXOR computes, for each bit i, the XOR of bits 0..i of x. With quote
// bits as input, the result marks bytes inside string literals (between an
// opening and closing quote). This is the carry-less multiply by ~0 from the
// Mison paper, computed with shift-XOR doubling.
func prefixXOR(x uint64) uint64 {
	x ^= x << 1
	x ^= x << 2
	x ^= x << 4
	x ^= x << 8
	x ^= x << 16
	x ^= x << 32
	return x
}

// colonsWithin returns the level-l colon positions inside (start, end).
func (ix *index) colonsWithin(level int, start, end int32) []int32 {
	if level < 1 || level > len(ix.colons) {
		return nil
	}
	all := ix.colons[level-1]
	lo := sort.Search(len(all), func(i int) bool { return all[i] > start })
	hi := sort.Search(len(all), func(i int) bool { return all[i] >= end })
	return all[lo:hi]
}

// sepAfter returns the first level-l separator strictly after pos, or -1.
func (ix *index) sepAfter(level int, pos int32) int32 {
	if level < 1 || level > len(ix.seps) {
		return -1
	}
	all := ix.seps[level-1]
	i := sort.Search(len(all), func(i int) bool { return all[i] > pos })
	if i == len(all) {
		return -1
	}
	return all[i]
}

// sepsWithin returns the level-l separators inside (start, end].
func (ix *index) sepsWithin(level int, start, end int32) []int32 {
	if level < 1 || level > len(ix.seps) {
		return nil
	}
	all := ix.seps[level-1]
	lo := sort.Search(len(all), func(i int) bool { return all[i] > start })
	hi := sort.Search(len(all), func(i int) bool { return all[i] > end })
	return all[lo:hi]
}
