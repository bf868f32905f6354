package core

import (
	"sort"

	"repro/internal/datum"
	"repro/internal/jsonpath"
	"repro/internal/pathkey"
	"repro/internal/warehouse"
)

// The paper's P_j prices a full tree parse of the document (Jackson): a
// per-byte rate plus a fixed per-get_json_object cost. These are the only two
// modelled numbers the scorer uses; the paper's figures price tree parsing
// with the same two.
const (
	TreeParseNsPerByte = 6.7
	ParseNsPerCall     = 80
)

// PathProfile holds the measured inputs of the scoring function for one
// MPJP candidate (paper Table I).
type PathProfile struct {
	Key pathkey.Key
	// AvgValueBytes is B_j: the mean size of the parsed value, estimated by
	// sampling rows from each split.
	AvgValueBytes float64
	// AvgParseNs is P_j: the mean cost of parsing the value out of its
	// document with a full tree parse, priced by TreeParseNsPerByte and
	// ParseNsPerCall.
	AvgParseNs float64
	// AvgScanBytes is the mean number of document bytes the streaming
	// extractor scans to reach the value (it stops after it), measured on
	// the sample. Scoring uses AvgParseNs, the paper's P_j.
	AvgScanBytes float64
	// TotalValueBytes estimates the full cache footprint of the path (B_j
	// times the table's row count), the unit the budget is spent in.
	TotalValueBytes int64
	// Occurrence is O_j: how many queries access the path.
	Occurrence int
	// Relevance is R_j: ΣM_i / ΣN_i over the queries accessing the path.
	Relevance float64
	// Score is A_j · R_j · O_j with A_j = P_j / B_j.
	Score float64
}

// Scorer computes MPJP scores from sampled tables plus collected query
// statistics (paper §IV-B).
type Scorer struct {
	wh *warehouse.Warehouse
	// SampleRows bounds how many rows per split are sampled for B_j / P_j.
	SampleRows int
}

// NewScorer builds a scorer over a warehouse.
func NewScorer(wh *warehouse.Warehouse) *Scorer {
	return &Scorer{wh: wh, SampleRows: 64}
}

// Profile measures and scores the given MPJP candidates. sets counts the
// path multisets of the observed queries the window holds, for O_j and R_j;
// mpjpSet is the full predicted MPJP set (needed for M_i).
func (s *Scorer) Profile(candidates []pathkey.Key, sets []PathSetCount, mpjpSet map[pathkey.Key]bool) []*PathProfile {
	byPath := make(map[pathkey.Key]*PathProfile, len(candidates))
	for _, key := range candidates {
		byPath[key] = &PathProfile{Key: key}
	}
	for _, q := range sets {
		// Every query of the multiset has the same M_i and N_i.
		n, m := len(q.Paths), 0
		for _, p := range q.Paths {
			if mpjpSet[p] {
				m++
			}
		}
		for i, p := range q.Paths {
			prof, ok := byPath[p]
			if !ok || (i > 0 && q.Paths[i-1] == p) { // sorted: repeats are adjacent
				continue
			}
			prof.Occurrence += q.Count
			prof.Relevance += float64(m * q.Count) // numerator ΣM_i
			prof.Score += float64(n * q.Count)     // reuse Score as ΣN_i accumulator
		}
	}
	out := make([]*PathProfile, 0, len(candidates))
	samples := map[pathkey.Key]*columnSample{}
	for _, key := range candidates {
		prof := byPath[key]
		sumN := prof.Score
		prof.Score = 0
		if sumN > 0 {
			prof.Relevance /= sumN
		} else {
			prof.Relevance = 0
		}
		col := pathkey.Key{DB: key.DB, Table: key.Table, Column: key.Column}
		sample, ok := samples[col]
		if !ok {
			sample = s.sample(col)
			samples[col] = sample
		}
		s.measure(prof, sample)
		aj := 0.0
		if prof.AvgValueBytes > 0 {
			aj = prof.AvgParseNs / prof.AvgValueBytes
		}
		prof.Score = aj * prof.Relevance * float64(prof.Occurrence)
		out = append(out, prof)
	}
	// Descending score; deterministic tie-break.
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return pathkey.Less(out[i].Key, out[j].Key)
	})
	return out
}

// columnSample is what every candidate path of one JSON column is measured
// against: the first SampleRows rows of each split.
type columnSample struct {
	docs    []string
	numRows int64 // the table's row count
}

// sample reads one column's sample; nil when the table is gone.
func (s *Scorer) sample(col pathkey.Key) *columnSample {
	info, err := s.wh.Table(col.DB, col.Table)
	if err != nil {
		return nil
	}
	cs := &columnSample{numRows: info.NumRows, docs: make([]string, 0, len(info.Files)*s.SampleRows)}
	batch := [][]datum.Datum{make([]datum.Datum, s.SampleRows)}
	// A split that fails to open or read is left out of the sample.
	for _, file := range info.Files {
		r, err := s.wh.OpenFile(file)
		if err != nil {
			continue
		}
		cur, err := r.NewCursor([]string{col.Column}, nil, nil)
		if err != nil {
			continue
		}
		n, err := cur.NextBatch(batch, s.SampleRows)
		if err != nil {
			continue
		}
		for _, doc := range batch[0][:n] {
			if !doc.Null {
				cs.docs = append(cs.docs, doc.S)
			}
		}
	}
	return cs
}

// measure estimates B_j, P_j and the total cache footprint of one path from
// its column's sample.
func (s *Scorer) measure(prof *PathProfile, sample *columnSample) {
	if sample == nil || len(sample.docs) == 0 {
		return
	}
	path, err := jsonpath.Compile(prof.Key.Path)
	if err != nil {
		return
	}
	var valueBytes, docBytes, scanBytes int64
	x := jsonpath.NewExtractor(jsonpath.MustPathSet(path))
	for _, doc := range sample.docs {
		docBytes += int64(len(doc))
		scanned := x.Extract(doc)
		if x.Err() != nil {
			// A malformed document is costed as scanned in full and caches
			// nothing.
			scanBytes += int64(len(doc))
			continue
		}
		scanBytes += int64(scanned)
		v, _ := x.Scalar(0)
		valueBytes += int64(len(v)) + 1 // a NULL is just its marker byte
	}
	sampled := int64(len(sample.docs))
	prof.AvgValueBytes = float64(valueBytes) / float64(sampled)
	// P_j: what the paper's SparkSQL pays to answer the path uncached, a full
	// tree parse of the document (per-byte rate plus per-call overhead).
	avgDoc := float64(docBytes) / float64(sampled)
	prof.AvgParseNs = avgDoc*TreeParseNsPerByte + ParseNsPerCall
	prof.AvgScanBytes = float64(scanBytes) / float64(sampled)
	prof.TotalValueBytes = int64(prof.AvgValueBytes * float64(sample.numRows))
	if prof.TotalValueBytes < 1 {
		prof.TotalValueBytes = 1
	}
}

// SelectUnderBudget takes score-sorted profiles and returns the prefix that
// fits the byte budget, skipping entries that do not fit and paths already
// covered by a selected prefix path (paper §IV-C: cache in sorted order
// until space runs out).
func SelectUnderBudget(profiles []*PathProfile, budgetBytes int64) []*PathProfile {
	var out []*PathProfile
	var used int64
	compiled := map[string]*jsonpath.Path{}
	covered := func(k pathkey.Key) bool {
		kp, err := jsonpath.Compile(k.Path)
		if err != nil {
			return true
		}
		for _, sel := range out {
			if sel.Key.DB == k.DB && sel.Key.Table == k.Table && sel.Key.Column == k.Column {
				if sp := compiled[sel.Key.Path]; sp != nil && sp.Covers(kp) {
					return true
				}
			}
		}
		return false
	}
	for _, p := range profiles {
		if p.TotalValueBytes <= 0 || used+p.TotalValueBytes > budgetBytes {
			continue
		}
		if covered(p.Key) {
			continue
		}
		if cp, err := jsonpath.Compile(p.Key.Path); err == nil {
			compiled[p.Key.Path] = cp
		}
		out = append(out, p)
		used += p.TotalValueBytes
	}
	return out
}

// RandomSelectUnderBudget is the Fig 11 baseline: pick MPJPs in a shuffled
// order until the budget is exhausted.
func RandomSelectUnderBudget(profiles []*PathProfile, budgetBytes int64, seed int64) []*PathProfile {
	shuffled := append([]*PathProfile{}, profiles...)
	rng := newSplitMix(seed)
	for i := len(shuffled) - 1; i > 0; i-- {
		j := int(rng.next() % uint64(i+1))
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	}
	var out []*PathProfile
	var used int64
	for _, p := range shuffled {
		if p.TotalValueBytes <= 0 || used+p.TotalValueBytes > budgetBytes {
			continue
		}
		out = append(out, p)
		used += p.TotalValueBytes
	}
	return out
}

// splitMix is a tiny deterministic PRNG so selection does not depend on
// math/rand's global state.
type splitMix struct{ state uint64 }

func newSplitMix(seed int64) *splitMix { return &splitMix{state: uint64(seed)*2685821657736338717 + 1} }

func (s *splitMix) next() uint64 {
	s.state += 0x9E3779B97F4A7C15
	z := s.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
