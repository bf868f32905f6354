package core

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/datum"
	"repro/internal/orc"
	"repro/internal/pathkey"
	"repro/internal/simtime"
	"repro/internal/warehouse"
)

// The paper's Fig 5 stores the collector's output in a statistics table
// partitioned by date, so predictor training survives restarts and can run
// on a different node than the collector. This file persists the collector
// through the warehouse itself, in an ORC table under the Maxson metadata
// database: one row per element of each day's path multisets, carrying the
// multiset's number within its day ("pathset") and how many queries
// referenced it that day ("cnt"). A path a query named twice is two rows.

// StatsDB is the database holding Maxson's own metadata tables.
const StatsDB = "maxson_meta"

// StatsTable is the statistics table name.
const StatsTable = "jsonpath_stats"

var statsColumns = []string{"date", "pathset", "db", "tbl", "col", "path", "cnt"}

func statsSchema() orc.Schema {
	return orc.Schema{Columns: []orc.Column{
		{Name: "date", Type: datum.TypeString},
		{Name: "pathset", Type: datum.TypeInt64},
		{Name: "db", Type: datum.TypeString},
		{Name: "tbl", Type: datum.TypeString},
		{Name: "col", Type: datum.TypeString},
		{Name: "path", Type: datum.TypeString},
		{Name: "cnt", Type: datum.TypeInt64},
	}}
}

// SaveStats writes the collector's per-day multiset counts into the
// warehouse, replacing any previous snapshot, and returns the row count
// written. A day's rows are consecutive, its multisets in order.
func (c *Collector) SaveStats(wh *warehouse.Warehouse) (int, error) {
	c.mu.Lock()
	days := make([]int64, 0, len(c.days))
	for day := range c.days {
		days = append(days, day)
	}
	slices.Sort(days)
	var rows [][]datum.Datum
	for _, day := range days {
		date := datum.Str(simtime.DateKey(time.Unix(day*86400, 0)))
		sets := make([]*pathSet, 0, len(c.days[day]))
		for set := range c.days[day] {
			sets = append(sets, set)
		}
		slices.SortFunc(sets, func(a, b *pathSet) int { return slices.CompareFunc(a.keys, b.keys, pathkey.Compare) })
		for i, set := range sets {
			for _, k := range set.keys {
				rows = append(rows, []datum.Datum{date, datum.Int(int64(i)),
					datum.Str(k.DB), datum.Str(k.Table), datum.Str(k.Column), datum.Str(k.Path),
					datum.Int(int64(c.days[day][set]))})
			}
		}
	}
	c.mu.Unlock()

	wh.CreateDatabase(StatsDB)
	if wh.TableExists(StatsDB, StatsTable) {
		if err := wh.DropTable(StatsDB, StatsTable); err != nil {
			return 0, err
		}
	}
	if err := wh.CreateTable(StatsDB, StatsTable, statsSchema()); err != nil {
		return 0, err
	}
	if len(rows) == 0 {
		return 0, nil
	}
	if _, err := wh.AppendRows(StatsDB, StatsTable, rows); err != nil {
		return 0, err
	}
	return len(rows), nil
}

// LoadStats adds the per-day multiset counts of a SaveStats snapshot to the
// collector's (usually empty) state and returns the row count read. The
// round trip is exact, so the first cycle after a restart scores the same
// occurrence and relevance as a node that never stopped.
func (c *Collector) LoadStats(wh *warehouse.Warehouse) (int, error) {
	if !wh.TableExists(StatsDB, StatsTable) {
		return 0, nil
	}
	rows, err := wh.ReadAll(StatsDB, StatsTable, statsColumns)
	if err != nil {
		return 0, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var keys []pathkey.Key
	for i, row := range rows {
		if len(row) != len(statsColumns) {
			return i, fmt.Errorf("core: stats row %d malformed", i)
		}
		keys = append(keys, pathkey.Key{DB: row[2].S, Table: row[3].S, Column: row[4].S, Path: row[5].S})
		if next := i + 1; next < len(rows) && len(rows[next]) > 1 && rows[next][0].S == row[0].S && rows[next][1].I == row[1].I {
			continue // the multiset goes on
		}
		date, err := time.Parse("20060102", row[0].S)
		if err != nil {
			return i, fmt.Errorf("core: stats row %d: %w", i, err)
		}
		c.add(epochDay(date), keys, int(row[6].I))
		keys = keys[:0]
	}
	return len(rows), nil
}
