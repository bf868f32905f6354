package main

import (
	"context"
	"fmt"
	"path/filepath"

	"repro"
	"repro/internal/datum"
	"repro/internal/jsonpath"
	"repro/internal/pathkey"
	"repro/internal/sjson"
	"repro/internal/sqlengine"
)

// replayRequests is how many of the workload's first requests the traced
// run replays.
const replayRequests = 100

// replayReq names one measured request: which client sent it and which of
// that client's templates it was.
type replayReq struct{ client, tmpl int }

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// phaseMetrics is the part of the per-layer metrics that needs no tracing:
// counters and reply fields from the measured phase and stage timings from
// the cycle reports. Every run computes it, because the gates read it.
func phaseMetrics(p *phase, cycles []*maxson.CycleReport, cycleS []float64) map[string]metric {
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	n := float64(p.attempted)
	per := func(counter string) float64 { return share(p.counters[counter], n) }

	// serve: what a client sees on the clock (see clockMetrics for why these
	// carry no bound), and what the request pays outside the engine.
	put("serve.qps", median(p.windowQPS), "1/s")
	put("serve.lat_p50_ms", percentile(p.latMS, 50), "ms")
	put("serve.lat_p95_ms", percentile(p.latMS, 95), "ms")
	put("serve.cpu_ms_per_query", share(p.cpuMS, n), "ms")
	put("serve.http_overhead_us", median(p.overheadUS), "us")
	put("serve.queue_wait_us", mean(p.queueUS), "us")
	put("serve.response_bytes_per_query", share(float64(p.respBytes), n), "B")
	put("serve.shed_share", per("serve_shed_total"), "share")

	// sqlengine: work counters per query.
	put("sqlengine.rows_scanned_per_query", per("engine_rows_scanned_total"), "count")
	put("sqlengine.row_ops_per_query", per("engine_row_ops_total"), "count")
	put("sqlengine.batches_per_query", per("engine_batch_rows_count_count"), "count")
	put("sqlengine.bytes_read_per_query", per("engine_bytes_read_total"), "B")
	rgRead, rgSkipped := p.counters["engine_rowgroups_read_total"], p.counters["engine_rowgroups_skipped_total"]
	put("sqlengine.rowgroups_skipped_share", share(rgSkipped, rgRead+rgSkipped), "share")
	put("sqlengine.parse_docs_per_query", per("engine_parse_docs_total"), "count")
	put("sqlengine.parse_bytes_per_query", per("engine_parse_bytes_total"), "B")
	parsed, skipped := p.counters["engine_parse_bytes_total"], p.counters["engine_parse_bytes_skipped_total"]
	put("sqlengine.parse_skipped_share", share(skipped, parsed+skipped), "share")
	hits, misses := p.counters["engine_cache_values_read_total"], p.counters["engine_cache_misses_total"]
	put("sqlengine.cache_values_per_query", share(hits, n), "count")
	put("sqlengine.cache_hit_share", share(hits, hits+misses), "share")

	// core: how plans were served, and what the combiner had to fall back on.
	for name, mode := range map[string]string{
		"cached": "cached", "combined": "combined", "raw": "raw", "fallback": "fallback-raw", "shared": "shared"} {
		put("core.plan_mode."+name+"_share", share(float64(p.modes[mode]), n), "share")
	}
	var opens, fallbackOpens float64
	for _, mode := range []string{"combined", "combined-pushdown", "fallback-retired", "fallback-uncovered", "fallback-quarantined"} {
		c := p.counters[`combiner_opens_total{mode="`+mode+`"}`]
		opens += c
		if mode != "combined" && mode != "combined-pushdown" {
			fallbackOpens += c
		}
	}
	put("core.combiner.rows_stitched_per_query", per("combiner_rows_stitched_total"), "count")
	put("core.combiner.fallback_values_per_query", per("combiner_fallback_values_total"), "count")
	put("core.combiner.fallback_open_share", share(fallbackOpens, opens), "share")
	put("core.cache.fallback_queries", p.counters["cache_fallback_queries_total"], "count")

	// core: the midnight cycle, whole and stage by stage.
	put("core.cycle.wall_s", median(cycleS), "s")
	stage := map[string][]float64{}
	var written, scanned, skippedB, cached []float64
	for _, rep := range cycles {
		for _, s := range rep.Stages {
			stage[s.Name] = append(stage[s.Name], float64(s.Wall)/1e6)
		}
		written = append(written, float64(rep.Cache.BytesWritten))
		scanned = append(scanned, float64(rep.Cache.BytesScanned))
		skippedB = append(skippedB, share(float64(rep.Cache.BytesSkipped), float64(rep.Cache.BytesScanned+rep.Cache.BytesSkipped)))
		cached = append(cached, float64(rep.Cache.PathsCached))
	}
	for _, name := range []string{"retire", "collect", "predict", "score", "populate"} {
		put("core.cycle."+name+"_ms", median(stage[name]), "ms")
	}
	put("core.cacher.bytes_written_per_cycle", median(written), "B")
	put("core.cacher.bytes_scanned_per_cycle", median(scanned), "B")
	put("core.cacher.skipped_share", median(skippedB), "share")
	put("core.cacher.paths_cached", median(cached), "count")

	// scanshare: what the admission window costs and buys.
	put("scanshare.window_wait_us", share(p.counters["scanshare_window_wait_ns_sum"], p.counters["scanshare_window_wait_ns_count"])/1e3, "us")
	coalesced, solo := p.counters["scanshare_queries_coalesced_total"], p.counters["scanshare_solo_queries_total"]
	put("scanshare.coalesced_share", share(coalesced, coalesced+solo), "share")
	put("scanshare.parse_bytes_saved_per_query", per("scanshare_parse_bytes_saved_total"), "B")

	put("dfs.read_bytes_per_query", per("dfs_bytes_read"), "B")
	put("dfs.reads_per_query", per("dfs_opens"), "count")
	put("orc.rowgroups_read_per_query", share(rgRead, n), "count")

	// harness: how the machine and the runtime behaved meanwhile.
	put("harness.ref_kernel_ms", median(p.refMS), "ms")
	put("harness.qps_window_iqr_share", iqrShare(p.windowQPS), "share")
	put("harness.gc_cycles", float64(p.gcCycles), "count")
	put("harness.gc_pause_ms", p.gcPauseMS, "ms")

	return m
}

// tracedMetrics adds the per-layer metrics that come from timing direct
// calls into each layer, and returns the spans recorded on the way.
func (r *runner) tracedMetrics(ctx context.Context, p *phase, m map[string]metric) ([]span, error) {
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	rec := newRecorder()
	if err := r.requestReplay(ctx, rec, p.first, put); err != nil {
		return nil, fmt.Errorf("traced replay: %w", err)
	}
	if err := r.scanReplay(rec, put); err != nil {
		return nil, fmt.Errorf("scan replay: %w", err)
	}
	return rec.spans, nil
}

// requestReplay sends the workload's first requests again over one
// connection, once untraced and once traced. Traced, each request gets a
// root span around the real HTTP round trip and a replay span with the same
// request id whose children time Parse, Plan, Planner.Modify and ExecuteCtx
// called directly, which is as far in as a trace from outside can see.
func (r *runner) requestReplay(ctx context.Context, rec *recorder, reqs []replayReq, put func(string, float64, string)) error {
	var all []template
	offset := [numClients]int{}
	for c, cl := range r.clients {
		offset[c] = len(all)
		all = append(all, cl.templates...)
	}
	one, err := newClient(r.bed.addr, numClients, all)
	if err != nil {
		return err
	}
	defer one.http.CloseIdleConnections()
	eng, planner := r.bed.sys.Engine(), r.bed.sys.Core().Planner

	var untracedMS []float64
	for _, q := range reqs {
		s := one.do(ctx, offset[q.client]+q.tmpl)
		if s.err != nil || s.status != 200 {
			return fmt.Errorf("untraced replay of %s: HTTP %d %v", all[offset[q.client]+q.tmpl].Name, s.status, s.err)
		}
		untracedMS = append(untracedMS, float64(s.latency)/1e6)
	}

	var tracedMS, parseUS, compileUS, planUS, modUS, execMS, coverage []float64
	for i, q := range reqs {
		t := all[offset[q.client]+q.tmpl]
		root := rec.begin("http.round_trip", -1, i)
		s := one.do(ctx, offset[q.client]+q.tmpl)
		rec.end(root)
		s.tmpl = q.tmpl // verify looks the golden up by the client's own index
		check := &phase{modes: map[string]int{}}
		r.verify(check, q.client, s)
		if check.failed > 0 {
			return fmt.Errorf("traced replay: %s", check.firstFailure)
		}

		rp := rec.begin("replay", -1, i)
		id := rec.begin("sqlengine.Parse", rp, i)
		stmt, err := sqlengine.Parse(t.SQL)
		parse := rec.end(id)
		if err != nil {
			return err
		}
		id = rec.begin("jsonpath.Compile", rp, i)
		var paths []*jsonpath.Path
		for _, jp := range stmt.JSONPaths() {
			cp, err := jsonpath.Compile(jp.Path.String())
			if err != nil {
				return err
			}
			paths = append(paths, cp)
		}
		if len(paths) > 0 {
			if _, err := jsonpath.NewPathSet(paths...); err != nil {
				return err
			}
		}
		compile := rec.end(id)
		id = rec.begin("sqlengine.Plan", rp, i)
		plan, err := eng.Plan(stmt)
		planD := rec.end(id)
		if err != nil {
			return err
		}
		id = rec.begin("core.Planner.Modify", rp, i)
		_, err = planner.Modify(plan, stmt)
		mod := rec.end(id)
		if err != nil {
			return err
		}
		id = rec.begin("sqlengine.ExecuteCtx", rp, i)
		_, _, err = eng.ExecuteCtx(ctx, plan)
		exec := rec.end(id)
		if err != nil {
			return err
		}
		rec.end(rp)

		tracedMS = append(tracedMS, float64(s.latency)/1e6)
		parseUS = append(parseUS, float64(parse)/1e3)
		compileUS = append(compileUS, float64(compile)/1e3)
		planUS = append(planUS, float64(planD)/1e3)
		modUS = append(modUS, float64(mod)/1e3)
		execMS = append(execMS, float64(exec)/1e6)
		seen := check.overheadUS[0]*1e3 + check.queueUS[0]*1e3 + float64(parse+planD+mod+exec)
		coverage = append(coverage, share(seen, float64(s.latency)))
	}
	put("sqlengine.parse_us", median(parseUS), "us")
	put("sqlengine.plan_us", median(planUS), "us")
	put("core.planmod_us", median(modUS), "us")
	put("sqlengine.execute_ms", median(execMS), "ms")
	put("jsonpath.compile_us", median(compileUS), "us")
	put("harness.trace_overhead_share", share(median(tracedMS), median(untracedMS))-1, "share")
	put("harness.trace_coverage_share", median(coverage), "share")
	return nil
}

// scanReplay walks every split the workload's tables hold and times the
// storage and extraction layers one call at a time: FS.ReadFile, then
// Warehouse.OpenFile (read + footer), then the ORC cursor over the JSON
// column, then PathSet.Extract and Parser.Parse over the decoded documents;
// and the ORC cursor over the cache-table columns that hold the workload's
// cached paths.
func (r *runner) scanReplay(rec *recorder, put func(string, float64, string)) error {
	wh := r.bed.sys.Warehouse()
	root := rec.begin("scan_replay", -1, -1)
	var readNS, readBytes, rawNS, rawValues, cacheNS, cacheValues float64
	var extractNS, extractScanned, docBytes, treeNS float64
	var openUS []float64
	var parser sjson.Parser

	// decode drains a cursor over cols, one span per NextBatch call, and
	// hands each batch to keep before the next call overwrites it.
	decode := func(spanName, file string, cols []string, keep func([][]datum.Datum, int)) (ns, values float64, err error) {
		rd, err := wh.OpenFile(file)
		if err != nil {
			return 0, 0, err
		}
		cur, err := rd.NewCursor(cols, nil, nil)
		if err != nil {
			return 0, 0, err
		}
		dst := make([][]datum.Datum, len(cols))
		for i := range dst {
			dst[i] = make([]datum.Datum, sqlengine.DefaultBatchSize)
		}
		for {
			id := rec.begin(spanName, root, -1)
			got, err := cur.NextBatch(dst, sqlengine.DefaultBatchSize)
			ns += float64(rec.end(id))
			if err != nil {
				return 0, 0, err
			}
			if got == 0 {
				return ns, values, nil
			}
			values += float64(got * len(cols))
			if keep != nil {
				keep(dst, got)
			}
		}
	}

	seen := map[string]bool{}
	for _, cl := range r.clients {
		table := cl.templates[0].Table
		if seen[table] {
			continue
		}
		seen[table] = true
		paths, err := templatePaths(cl.templates)
		if err != nil {
			return err
		}
		var set *jsonpath.PathSet
		if len(paths) > 0 {
			if set, err = jsonpath.NewPathSet(paths...); err != nil {
				return err
			}
		}
		out := make([]*sjson.Value, len(paths))
		info, err := wh.Table("prod", table)
		if err != nil {
			return err
		}
		for _, file := range info.Files {
			id := rec.begin("dfs.FS.ReadFile", root, -1)
			data, err := wh.FS().ReadFile(file)
			readNS += float64(rec.end(id))
			if err != nil {
				return err
			}
			readBytes += float64(len(data))

			id = rec.begin("warehouse.OpenFile", root, -1)
			_, err = wh.OpenFile(file)
			openUS = append(openUS, float64(rec.end(id))/1e3)
			if err != nil {
				return err
			}

			var docs [][]byte
			ns, values, err := decode("orc.Cursor.NextBatch.raw", file, []string{"payload"}, func(dst [][]datum.Datum, got int) {
				for _, d := range dst[0][:got] {
					docs = append(docs, []byte(d.S))
					docBytes += float64(len(d.S))
				}
			})
			if err != nil {
				return err
			}
			rawNS, rawValues = rawNS+ns, rawValues+values

			if set != nil {
				id = rec.begin("jsonpath.PathSet.Extract", root, -1)
				for _, doc := range docs {
					parser.ResetValues()
					n, err := set.Extract(&parser, doc, out)
					if err != nil {
						return err
					}
					extractScanned += float64(n)
				}
				extractNS += float64(rec.end(id))
			}
			id = rec.begin("sjson.Parser.Parse", root, -1)
			for _, doc := range docs {
				parser.ResetValues()
				if _, err := parser.Parse(doc); err != nil {
					return err
				}
			}
			treeNS += float64(rec.end(id))
		}

		// The cache lane: the columns of the cache tables that hold this
		// table's cached paths.
		cacheCols := map[[2]string][]string{}
		for _, p := range paths {
			e := r.bed.sys.Core().Registry.Lookup(pathkey.Key{DB: "prod", Table: table, Column: "payload", Path: p.Canonical()})
			if e != nil && !e.Invalid {
				t := [2]string{e.CacheDB, e.CacheTable}
				cacheCols[t] = append(cacheCols[t], e.CacheColumn)
			}
		}
		for t, cols := range cacheCols {
			cinfo, err := wh.Table(t[0], t[1])
			if err != nil {
				return err
			}
			for _, file := range cinfo.Files {
				ns, values, err := decode("orc.Cursor.NextBatch.cache", file, cols, nil)
				if err != nil {
					return err
				}
				cacheNS, cacheValues = cacheNS+ns, cacheValues+values
			}
		}
	}
	rec.end(root)

	put("dfs.read_ns_per_byte", share(readNS, readBytes), "ns/B")
	put("warehouse.open_file_us", median(openUS), "us")
	put("orc.decode_ns_per_value.raw", share(rawNS, rawValues), "ns")
	put("orc.decode_ns_per_value.cache", share(cacheNS, cacheValues), "ns")
	put("sjson.extract_ns_per_byte", share(extractNS, docBytes), "ns/B")
	put("sjson.scanned_share", share(extractScanned, docBytes), "share")
	put("sjson.tree_parse_ns_per_byte", share(treeNS, docBytes), "ns/B")
	return nil
}

// templatePaths is the distinct set of JSONPaths a template list reads.
func templatePaths(ts []template) ([]*jsonpath.Path, error) {
	var paths []*jsonpath.Path
	seen := map[string]bool{}
	for _, t := range ts {
		stmt, err := sqlengine.Parse(t.SQL)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", t.Name, err)
		}
		for _, jp := range stmt.JSONPaths() {
			if c := jp.Path.Canonical(); !seen[c] {
				seen[c] = true
				paths = append(paths, jp.Path)
			}
		}
	}
	return paths, nil
}

// traceFile is where the traced run of a workload leaves its spans.
func traceFile(w string) string { return filepath.Join(outDir, "trace-"+w+".json") }
