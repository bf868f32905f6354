// Package scanshare batches concurrent queries over the same (table,
// generation) into one shared scan. Maxson's premise is eliminating
// duplicate parsing; without sharing, N concurrent queries against one
// table tokenize the same raw and cached splits N times. The scheduler
// holds an arriving query for a short admission window when its scan's
// fingerprint is contended, groups the ones whose scans are compatible,
// unions their compiled JSONPath sets into one merged trie (jsonpath.Union —
// subsumption-deduplicated), runs a single pass, and demultiplexes the batches
// to every participant's own filter/project/agg pipeline over per-query
// bounded channels.
//
// A query waits only where company is to be expected. The scheduler
// remembers, per fingerprint, its last arrival and a contended bit. An
// arrival less than one window after the previous one sets the bit but runs
// at once; the next arrival finds the bit and opens a group, and a group
// that seals with fewer than two live queries clears it (and counts as the
// fingerprint's last arrival, so a partner that just missed it sets the bit
// again). Every other query runs unshared at once, with no group, timer or
// channel: a lone query pays nothing for the sharing it does not get.
//
// Two sharing modes cover the planner's output:
//
//   - merged: plain raw scans (no custom factory). Participants'
//     get_json_object calls are rewritten to placeholder reads of shared
//     extraction columns appended to the scan schema. The producer's scan
//     lists the union of everyone's paths as its ScanNode.Extract, so the
//     engine's split reader extracts it — the one batch extraction every
//     other reader of raw JSON uses — and each document is parsed once.
//   - broadcast: scans whose factory reports a ScanFingerprint (Maxson's
//     combined cache+raw reader). Plans are untouched; the producer runs
//     one factory's splits and broadcasts the rows, so cache stitching,
//     quarantine marking, and ErrCacheDegraded re-planning behave exactly
//     as they would unshared — every sibling sees the degrade error and
//     re-plans independently.
//
// Rows cross the demux boundary by copy, through one sqlengine.BatchPipe per
// consumer: the producer's Send copies the current batch into a pooled batch
// the pipe keeps, the consumer's Recv copies it out into the executor's batch
// and the pipe recycles it. This package never holds a pooled batch: the one
// the producer scans into is lent to it by Engine.ScanBatches for the length
// of the pass, and the ones in flight belong to the pipes. A consumer that
// errors or is cancelled abandons its pipe — the producer's next Send to it
// reports false and the pipe recycles what was queued — so one query's exit
// never poisons its siblings or strands a pooled batch.
package scanshare

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/sqlengine"
)

// Defaults for Options fields left zero.
const (
	DefaultWindow     = time.Millisecond
	DefaultMaxQueries = 16

	// demuxDepth bounds each consumer's channel: the producer runs at most
	// this many batches ahead of the slowest consumer (backpressure).
	demuxDepth = 4
)

// Fingerprinter lets a custom ScanSourceFactory opt into broadcast sharing:
// two scans whose factories return the same non-empty fingerprint read
// identical rows and may be served by one pass. Maxson's CombinedScanFactory
// implements it.
type Fingerprinter interface {
	ScanFingerprint() string
}

// Options configures a Scheduler.
type Options struct {
	// Window is the admission window: the most a query waits for company it
	// has reason to expect. It is also the horizon of that expectation: two
	// arrivals of one fingerprint less than a window apart make the next one
	// open a group and wait this long for compatible queries. Any other
	// query starts at once. Zero means DefaultWindow.
	Window time.Duration
	// MaxQueries seals a group early once this many queries joined
	// (default DefaultMaxQueries).
	MaxQueries int
	// Obs receives scanshare_* metrics (nil = a private registry).
	Obs *obs.Registry
	// Generation distinguishes cache generations of a table: scans taken
	// against different generations must not share a pass. Nil means all
	// generations are 0 (sharing keyed by table alone).
	Generation func(db, table string) int64
}

// counters are the scheduler's pre-resolved registry instruments.
type counters struct {
	groups          *obs.Counter
	solo            *obs.Counter
	coalesced       *obs.Counter
	detach          *obs.Counter
	bytesSaved      *obs.Counter
	parseBytesSaved *obs.Counter
	windowWait      *obs.Histogram
}

// Scheduler implements sqlengine.ScanSharer. One scheduler serves one
// engine; safe for concurrent Attach calls.
type Scheduler struct {
	window time.Duration
	maxQ   int
	gen    func(db, table string) int64
	c      counters

	mu     sync.Mutex
	groups map[string]*group
	// tables remembers each table's arrivals in the newest generation an
	// arrival named for it; swept is when sweep last ran.
	tables map[tableKey]*arrivals
	swept  time.Time
}

type tableKey struct{ db, table string }

// arrivals is one table's admission history in one generation. Fingerprints
// embed the generation, so when an arrival names another one, the older
// generation's entries can never match again and are dropped as a whole.
type arrivals struct {
	gen  int64
	keys map[string]arrival
}

// arrival is what the scheduler remembers of one fingerprint.
type arrival struct {
	// last is its latest arrival, or the seal of its latest group that
	// found no company, whichever came later.
	last      time.Time
	contended bool // its next query waits for company
}

// New builds a scheduler. Install it with Engine.SetScanShare.
func New(opts Options) *Scheduler {
	if opts.Window <= 0 {
		opts.Window = DefaultWindow
	}
	if opts.MaxQueries <= 0 {
		opts.MaxQueries = DefaultMaxQueries
	}
	reg := opts.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &Scheduler{
		window: opts.Window,
		maxQ:   opts.MaxQueries,
		gen:    opts.Generation,
		groups: make(map[string]*group),
		tables: make(map[tableKey]*arrivals),
		c: counters{
			groups:          reg.Counter("scanshare_groups_total"),
			solo:            reg.Counter("scanshare_solo_queries_total"),
			coalesced:       reg.Counter("scanshare_queries_coalesced_total"),
			detach:          reg.Counter("scanshare_detach_total"),
			bytesSaved:      reg.Counter("scanshare_bytes_saved_total"),
			parseBytesSaved: reg.Counter("scanshare_parse_bytes_saved_total"),
			windowWait:      reg.Histogram("scanshare_window_wait_ns"),
		},
	}
}

// fingerprint keys group membership. Two scans may share a pass only when
// they read the same table and generation with the same column list and the
// same row-group predicate (SARG skips row groups at the storage layer, so
// it must be identical), and — for factory-backed scans — the factory
// attests row-identical output via ScanFingerprint. Per-query residual
// filters, Sparser prefilters, and projections run post-demux and do not
// constrain sharing.
func fingerprint(scan *sqlengine.ScanNode, factoryFP string, gen int64) string {
	var b strings.Builder
	if factoryFP != "" {
		b.WriteString("factory\x00")
		b.WriteString(factoryFP)
		b.WriteByte(0)
	} else {
		b.WriteString("raw\x00")
	}
	b.WriteString(scan.DB)
	b.WriteByte(0)
	b.WriteString(scan.Table)
	b.WriteByte(0)
	b.WriteString(strconv.FormatInt(gen, 10))
	b.WriteByte(0)
	b.WriteString(strings.Join(scan.Columns, ","))
	b.WriteByte(0)
	if scan.SARG != nil {
		b.WriteString(scan.SARG.String())
	}
	return b.String()
}

// Attach implements sqlengine.ScanSharer: offer plan's scan for sharing. A
// query whose fingerprint is not contended returns at once; otherwise Attach
// blocks until its group seals (at most the admission window). On return,
// either the plan is untouched and the query runs unshared (nil handle), or
// the scan now consumes a shared producer and the engine must Release the
// returned handle when the query finishes.
func (s *Scheduler) Attach(ctx context.Context, e *sqlengine.Engine, plan *sqlengine.PhysicalPlan) (sqlengine.SharedScanHandle, error) {
	scan := plan.Scan
	if scan == nil {
		return nil, nil
	}
	factoryFP := ""
	if scan.Factory != nil {
		fp, ok := scan.Factory.(Fingerprinter)
		if !ok {
			return nil, nil // opaque custom factory: not shareable
		}
		factoryFP = fp.ScanFingerprint()
		if factoryFP == "" {
			return nil, nil
		}
	}
	var gen int64
	if s.gen != nil {
		gen = s.gen(scan.DB, scan.Table)
	}
	key := fingerprint(scan, factoryFP, gen)
	t0 := time.Now()

	s.mu.Lock()
	h, contended := s.arrive(tableKey{scan.DB, scan.Table}, gen, key, t0)
	g := s.groups[key]
	if g == nil {
		if !contended {
			s.mu.Unlock()
			s.c.solo.Inc()
			s.c.windowWait.Observe(0)
			return nil, nil
		}
		g = &group{s: s, e: e, key: key, h: h, sealed: make(chan struct{})}
		s.groups[key] = g
		g.timer = time.AfterFunc(s.window, func() { s.seal(g) })
	}
	if g.e != e {
		// A scheduler shared across engines: never mix producers.
		s.mu.Unlock()
		return nil, nil
	}
	p := &participant{plan: plan, qctx: ctx, g: g}
	g.parts = append(g.parts, p)
	full := len(g.parts) >= s.maxQ
	s.mu.Unlock()

	if full {
		s.seal(g)
	}
	select {
	case <-g.sealed:
	case <-ctx.Done():
		s.c.detach.Inc()
		if !s.withdraw(g, p) {
			// The group sealed with this query in it. Sealing never blocks:
			// wait for it, then leave the pass it may have joined.
			<-g.sealed
			if p.shared {
				p.pipe.Abandon()
			}
		}
		return nil, ctx.Err()
	}
	s.c.windowWait.Observe(time.Since(t0).Nanoseconds())
	if p.err != nil {
		return nil, p.err
	}
	if p.shared {
		return p, nil
	}
	return nil, nil
}

// arrive records that key arrived at now and reports whether it was
// contended before this arrival, with the table history that holds it. An
// arrival less than one window after its fingerprint's last (arrival.last)
// marks it contended for the next, but does not wait itself: two clients
// sending the same statement together stay together. Called with s.mu held.
func (s *Scheduler) arrive(tk tableKey, gen int64, key string, now time.Time) (*arrivals, bool) {
	if now.Sub(s.swept) >= s.window {
		s.sweep(now)
	}
	h := s.tables[tk]
	if h == nil || h.gen != gen {
		h = &arrivals{gen: gen, keys: make(map[string]arrival)}
		s.tables[tk] = h
	}
	a, seen := h.keys[key]
	was := a.contended
	if seen && now.Sub(a.last) < s.window {
		a.contended = true
	}
	a.last = now
	h.keys[key] = a
	return h, was
}

// sweep forgets, at most once a window, what can no longer make a query
// wait: an uncontended fingerprint whose last arrival is a window old, and a
// table left with none. Called with s.mu held.
func (s *Scheduler) sweep(now time.Time) {
	s.swept = now
	for tk, h := range s.tables {
		for key, a := range h.keys {
			if !a.contended && now.Sub(a.last) >= s.window {
				delete(h.keys, key)
			}
		}
		if len(h.keys) == 0 {
			delete(s.tables, tk)
		}
	}
}

// seal freezes a group: no further queries may join, the membership decides
// solo versus shared, shared groups get their plans rewired and the single
// producer starts. A group that seals with fewer than two live queries
// waited for nobody, so its fingerprint stops being contended; the horizon
// restarts at the seal, so a partner that arrives just too late marks it
// again rather than falling out of step. Idempotent;
// called by the admission-window timer, by Attach when the group fills and
// by withdraw when the group empties.
func (s *Scheduler) seal(g *group) {
	s.mu.Lock()
	if g.sealedFlag {
		s.mu.Unlock()
		return
	}
	g.sealedFlag = true
	delete(s.groups, g.key)
	live := g.parts
	if len(live) < 2 {
		a := g.h.keys[g.key]
		a.contended = false
		a.last = time.Now()
		g.h.keys[g.key] = a
	}
	s.mu.Unlock()
	g.timer.Stop()

	if len(live) >= 2 {
		g.launch(live)
	}
	if !g.launched {
		// 0 or 1 live queries, or the group build failed before touching
		// any plan: everyone still attached runs unshared.
		if len(live) > 0 {
			s.c.solo.Add(int64(len(live)))
		}
	}
	close(g.sealed)
}

// withdraw removes p from a group that has not sealed yet, so the sealer
// never sees it, and seals the group at once if p was its last query. It
// reports false when the group already sealed.
func (s *Scheduler) withdraw(g *group, p *participant) bool {
	s.mu.Lock()
	if g.sealedFlag {
		s.mu.Unlock()
		return false
	}
	for i, q := range g.parts {
		if q == p {
			g.parts = append(g.parts[:i], g.parts[i+1:]...)
			break
		}
	}
	empty := len(g.parts) == 0
	s.mu.Unlock()
	if empty {
		s.seal(g)
	}
	return true
}

// sharedColName names the producer's i-th extraction of storage column
// colIdx. The names only need to be unique within one scan's schema; the
// placeholder rewrite binds them by name with an empty qualifier.
func sharedColName(colIdx, i int) string {
	return "__shared_" + strconv.Itoa(colIdx) + "_" + strconv.Itoa(i)
}

// errProducerPanic wraps a recovered producer panic for the consumers.
func errProducerPanic(v any) error {
	return fmt.Errorf("scanshare: shared producer panicked: %v", v)
}
