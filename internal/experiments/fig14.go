package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/experiments/baseline"
	"repro/internal/experiments/lru"
	"repro/internal/pathkey"
)

// Fig14Result compares Maxson's prediction-based caching with an online
// LRU cache over a multi-day replay of the ten queries.
type Fig14Result struct {
	Days           int
	LRUHitRatio    float64
	MaxsonHitRatio float64
	LRUTotalTime   time.Duration
	MaxsonTime     time.Duration
	NoCacheTime    time.Duration
}

// RunFig14 regenerates Fig 14. The replay runs the Table II workload for
// several days in trace order; each day every query executes twice (the
// spatial-correlation pattern where sibling queries share paths within
// close submission times — exactly the case where online caching cannot
// help the first access but prediction-based caching can).
//
// Per-access costs come from the measured per-path profiles: a miss pays
// the path's parse cost over the table's rows, a hit pays only the cache
// read. Maxson additionally pays its off-peak pre-parse (not counted into
// query latency, matching the paper's accounting where population runs at
// midnight) but misses mispredicted paths.
func RunFig14(rows int, seed int64, days int) (*Fig14Result, error) {
	w := BuildWorkload(rows, seed)
	env := newMaxsonEnv(w, baseline.JacksonBackend{})
	profiles := env.profiles()
	cm := DefaultCostModel()

	profByKey := map[pathkey.Key]*core.PathProfile{}
	for _, p := range profiles {
		profByKey[p.Key] = p
	}
	tableRows := int64(w.Rows)

	missCost := func(p *core.PathProfile) time.Duration {
		// Extract the path from every row's document. All systems fill with
		// the streaming single-pass extractor now, charged only for the bytes
		// it actually scans (AvgScanBytes), so the comparison stays
		// apples-to-apples against the new baseline.
		return time.Duration((p.AvgScanBytes*cm.ParseNsPerByteStream + cm.ParseNsPerCall) * float64(tableRows))
	}
	hitCost := func(p *core.PathProfile) time.Duration {
		// Read the cached values instead.
		return time.Duration(p.AvgValueBytes * float64(tableRows) * cm.ReadNsPerByte)
	}

	// Budget: half the MPJP footprint, so both systems must choose.
	budget := totalMPJPBytes(profiles) / 2

	// --- Online LRU replay ---
	onlineCache := lru.New(budget)
	var lruTime time.Duration
	var noCacheTime time.Duration
	// Each query runs twice per day; the sibling run follows immediately
	// (close submission times, the spatial-correlation pattern). Queries
	// from different users interleave, so an online cache faces eviction
	// pressure between a query's two runs across the day.
	replayDay := func(day int, access func(k pathkey.Key, p *core.PathProfile)) {
		for _, spec := range TableII() {
			for rep := 0; rep < 2; rep++ {
				for _, k := range env.pathKeys(spec.Name) {
					p := profByKey[k]
					if p == nil {
						continue
					}
					access(k, p)
				}
			}
		}
	}
	for day := 0; day < days; day++ {
		replayDay(day, func(k pathkey.Key, p *core.PathProfile) {
			noCacheTime += missCost(p)
			if onlineCache.Access(k, int64(day), p.TotalValueBytes) {
				lruTime += hitCost(p)
			} else {
				lruTime += missCost(p)
			}
		})
	}

	// --- Maxson replay ---
	// The predictor trains on the first day's observations and the daily
	// recurrence makes every path an MPJP; the scoring function selects
	// under the same budget. Selected paths are pre-cached before the day's
	// queries run, so their first access already hits.
	selected := core.SelectUnderBudget(profiles, budget)
	selectedSet := map[pathkey.Key]bool{}
	for _, p := range selected {
		selectedSet[p.Key] = true
	}
	var maxsonTime time.Duration
	var maxsonHits, maxsonMisses int64
	for day := 0; day < days; day++ {
		replayDay(day, func(k pathkey.Key, p *core.PathProfile) {
			if day > 0 && selectedSet[k] {
				// Day 0 has no history to predict from — the first day runs
				// uncached, like the paper's cold start.
				maxsonTime += hitCost(p)
				maxsonHits++
			} else {
				maxsonTime += missCost(p)
				maxsonMisses++
			}
		})
	}

	lruStats := onlineCache.Stats()
	return &Fig14Result{
		Days:           days,
		LRUHitRatio:    lruStats.HitRatio(),
		MaxsonHitRatio: float64(maxsonHits) / float64(maxsonHits+maxsonMisses),
		LRUTotalTime:   lruTime,
		MaxsonTime:     maxsonTime,
		NoCacheTime:    noCacheTime,
	}, nil
}

// String renders Fig 14.
func (r *Fig14Result) String() string {
	var sb strings.Builder
	sb.WriteString("Fig 14: Maxson vs online LRU cache management\n")
	fmt.Fprintf(&sb, "  replay: %d days, 10 queries x2 per day, budget = 50%% of MPJP bytes\n", r.Days)
	fmt.Fprintf(&sb, "  %-10s hit-ratio  total-time\n", "system")
	fmt.Fprintf(&sb, "  %-10s %.2f       %v\n", "LRU", r.LRUHitRatio, r.LRUTotalTime)
	fmt.Fprintf(&sb, "  %-10s %.2f       %v\n", "Maxson", r.MaxsonHitRatio, r.MaxsonTime)
	fmt.Fprintf(&sb, "  %-10s %.2f       %v\n", "no-cache", 0.0, r.NoCacheTime)
	return sb.String()
}
