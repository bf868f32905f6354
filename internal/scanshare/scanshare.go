// Package scanshare batches concurrent queries over the same (table,
// generation) into one shared scan. Maxson's premise is eliminating
// duplicate parsing; without sharing, N concurrent queries against one
// table tokenize the same raw and cached splits N times. The scheduler
// holds an arriving query for a short admission window when its scan's
// fingerprint is contended, groups the ones whose scans are compatible,
// unions what they read into one pass, and demultiplexes the batches to every
// participant's own filter/project/agg pipeline over per-query bounded
// channels.
//
// A query waits only where company is to be expected. The scheduler
// remembers, per fingerprint, its last arrival, that arrival's client session
// and a contended bit. An arrival less than one window after the previous one
// sets the bit but runs at once, unless both name the same session: a
// client's own repeat is not company. An arrival that names no session sets
// it only when its scan reads what the previous one read, as it did when
// scans reading different cache columns had different fingerprints. The next
// arrival finds the bit and opens a group, and a group that seals with fewer
// than two live queries clears it (and counts as the fingerprint's last
// arrival, of no session, so a partner that just missed it sets the bit
// again). Every other query runs unshared at once, with no group, timer or
// channel: a lone query pays nothing for the sharing it does not get.
//
// Every group shares one way. Each participant's get_json_object calls are
// already columns of its scan (ScanNode.Extract), so no plan is rewritten:
// the producer's scan extracts the union of the participants' Extract lists,
// each distinct (document column, path) once, so each document is parsed
// once, and every participant receives the columns its own schema names. A
// plain raw scan's producer is the engine's split reader over a ScanNode that
// lists the union as its Extract. A scan whose factory is a Unioner (Maxson's
// combined cache+raw reader) gets the factory's union instead: one combined
// scan over the participants' cache columns, with the union's extraction
// columns after them. Cache stitching, quarantine marking and
// ErrCacheDegraded then behave as they would unshared: a degraded pass fails
// every participant, and each re-plans on its own.
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
	"hash/maphash"
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

// Unioner is a custom ScanSourceFactory one pass may serve beside others.
// Maxson's CombinedScanFactory implements it.
type Unioner interface {
	// ShareKey is what, beyond the scan's table, generation, columns and
	// SARG, two factories must agree on for one pass to serve both.
	ShareKey() string
	// Union returns one factory serving every factory of fs (the receiver
	// among them, all with its share key): its rows are the scan's Columns,
	// then the union of the factories' own columns, then extract, filled into
	// the columns extCols describes.
	Union(fs []sqlengine.ScanSourceFactory, extract []sqlengine.Extraction, extCols []sqlengine.RowCol) sqlengine.ScanSourceFactory
}

// Options configures a Scheduler.
type Options struct {
	// Window is the admission window: the most a query waits for company it
	// has reason to expect. It is also the horizon of that expectation: two
	// arrivals of one fingerprint less than a window apart, each the other's
	// company, make the next one open a group and wait this long for
	// compatible queries. Any other query starts at once. Zero means
	// DefaultWindow.
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
	// found no company, whichever came later; session is the client session
	// that arrival named, "" for none and for a seal, and rows identifies
	// what its scan's rows held (rowsOf).
	last      time.Time
	session   string
	rows      uint64
	contended bool // its next query waits for company
}

// company reports whether an arrival from session whose scan's rows are rows,
// less than a window after a, is company a's fingerprint should expect: one
// from another session, or, for an arrival that names none, one whose rows
// are a's. The latter is the rule before shared passes unioned cache
// columns, when scans with different ones had different fingerprints, so a
// caller that sends no session — a test, an experiment, a system replaying
// its own workload — sees the contention it always saw.
func (a arrival) company(session string, rows uint64) bool {
	if session == "" {
		return rows == a.rows
	}
	return session != a.session
}

// rowsSeed seeds rowsOf, so that its hashes compare across calls.
var rowsSeed = maphash.MakeSeed()

// rowsOf identifies what scan's rows hold: its schema's columns, less the
// ones it extracts. Within one fingerprint they differ only in the cache
// columns of combined scans; what a scan extracts is unioned, as it always
// was.
func rowsOf(scan *sqlengine.ScanNode) uint64 {
	var h maphash.Hash
	h.SetSeed(rowsSeed)
	for _, c := range scan.Schema().Cols {
		if c.Extracted {
			continue
		}
		h.WriteString(c.Name)
		h.WriteByte(0)
		h.WriteString(c.Path)
		h.WriteByte(0)
	}
	return h.Sum64()
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
// it must be identical), and — for factory-backed scans — equal share keys.
// What they extract, and which cache columns a combined scan reads, is
// unioned instead. Per-query residual filters and projections run post-demux
// and do not constrain sharing.
func fingerprint(scan *sqlengine.ScanNode, shareKey string, gen int64) string {
	var b strings.Builder
	if scan.Factory != nil {
		b.WriteString("factory\x00")
		b.WriteString(shareKey)
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
// returned handle when the query finishes. The session ctx names
// (sqlengine.WithSession) decides whether a close arrival is company.
func (s *Scheduler) Attach(ctx context.Context, e *sqlengine.Engine, plan *sqlengine.PhysicalPlan) (sqlengine.SharedScanHandle, error) {
	scan := plan.Scan
	if scan == nil {
		return nil, nil
	}
	shareKey := ""
	if scan.Factory != nil {
		u, ok := scan.Factory.(Unioner)
		if !ok {
			return nil, nil // opaque custom factory: not shareable
		}
		shareKey = u.ShareKey()
	}
	var gen int64
	if s.gen != nil {
		gen = s.gen(scan.DB, scan.Table)
	}
	key := fingerprint(scan, shareKey, gen)
	t0 := time.Now()

	s.mu.Lock()
	h, contended := s.arrive(tableKey{scan.DB, scan.Table}, gen, key, arrival{last: t0, session: sqlengine.SessionOf(ctx), rows: rowsOf(scan)})
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
				p.leave(true)
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

// arrive records next, an arrival of key, and reports whether key was
// contended before it, with the table history that holds it. An arrival less
// than one window after its fingerprint's last (arrival.last) that is
// company (arrival.company) marks it contended for the next, but does not
// wait itself: two clients sending the same statement together stay
// together, and a client repeating itself expects no company. Called with
// s.mu held.
func (s *Scheduler) arrive(tk tableKey, gen int64, key string, next arrival) (*arrivals, bool) {
	if next.last.Sub(s.swept) >= s.window {
		s.sweep(next.last)
	}
	h := s.tables[tk]
	if h == nil || h.gen != gen {
		h = &arrivals{gen: gen, keys: make(map[string]arrival)}
		s.tables[tk] = h
	}
	a, seen := h.keys[key]
	next.contended = a.contended || seen && next.last.Sub(a.last) < s.window && a.company(next.session, next.rows)
	h.keys[key] = next
	return h, a.contended
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
// restarts at the seal, an arrival of no session with the lone query's rows,
// so a partner that arrives just too late — of any session, or of none and
// reading those rows — marks it again rather than falling out of step.
// Idempotent;
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
		g.h.keys[g.key] = arrival{last: time.Now(), rows: a.rows}
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

// errProducerPanic wraps a recovered producer panic for the consumers.
func errProducerPanic(v any) error {
	return fmt.Errorf("scanshare: shared producer panicked: %v", v)
}
