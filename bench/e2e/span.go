package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the boundary. Spans of one request share Req; Parent is the index of
// the span that caused this one, -1 for a root.
type span struct {
	Name       string
	Start, End time.Duration // since the recorder's epoch
	Parent     int
	Req        int
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) begin(name string, parent, req int) int {
	r.spans = append(r.spans, span{Name: name, Start: time.Since(r.epoch), Parent: parent, Req: req})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) time.Duration {
	r.spans[id].End = time.Since(r.epoch)
	return r.spans[id].End - r.spans[id].Start
}

// selfTimes is each span's duration minus the part of it its children
// cover. Children may overlap one another (parallel parts) and may stick
// out of the parent; covered time is the union of the children's intervals
// clipped to the parent, so nothing is subtracted twice.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		var covered time.Duration
		edge := s.Start // everything before edge is already accounted for
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// layerRow is one line of the per-layer self-time table.
type layerRow struct {
	Name   string  `json:"name"`
	Spans  int     `json:"spans"`
	SelfMS float64 `json:"self_ms"`
	Share  float64 `json:"share"`
}

// selfTable sums self time by span name, largest first.
func selfTable(spans []span) []layerRow {
	byName := map[string]*layerRow{}
	var total float64
	for i, d := range selfTimes(spans) {
		row := byName[spans[i].Name]
		if row == nil {
			row = &layerRow{Name: spans[i].Name}
			byName[spans[i].Name] = row
		}
		row.Spans++
		row.SelfMS += float64(d) / 1e6
		total += float64(d) / 1e6
	}
	rows := make([]layerRow, 0, len(byName))
	for _, row := range byName {
		row.Share = share(row.SelfMS, total)
		rows = append(rows, *row)
	}
	sort.Slice(rows, func(a, b int) bool {
		if rows[a].SelfMS != rows[b].SelfMS {
			return rows[a].SelfMS > rows[b].SelfMS
		}
		return rows[a].Name < rows[b].Name
	})
	return rows
}

// writeChromeTrace writes the spans as Chrome trace events (load the file
// in chrome://tracing or Perfetto) with the self-time table beside them.
func writeChromeTrace(path string, spans []span, table []layerRow, env map[string]any) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`  // µs
		Dur  float64        `json:"dur"` // µs
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, len(spans))
	for i, s := range spans {
		events[i] = event{Name: s.Name, Ph: "X", TS: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			PID: 1, TID: s.Req, Args: map[string]int{"span": i, "parent": s.Parent, "req": s.Req}}
	}
	blob, err := json.Marshal(map[string]any{"traceEvents": events, "selfTime": table, "environment": env})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}
