// Package testbed builds the in-memory stack the tests and the experiments
// run on: a simulated clock, a dfs, and a warehouse over them. It also loads
// tables and holds the two datasets several suites share. It imports no
// engine and no internal/core, so the internal tests of sqlengine, core,
// scanshare and serve can all use it; each caller builds its own engine over
// Bed.WH.
package testbed

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/datum"
	"repro/internal/dfs"
	"repro/internal/orc"
	"repro/internal/simtime"
	"repro/internal/warehouse"
)

// Config is what differs between stacks.
type Config struct {
	// Start is the simulated clock's first instant; zero means 2019-01-01
	// 00:00 UTC.
	Start time.Time
	// RowGroupRows caps the rows of an ORC row group; zero means orc's
	// default.
	RowGroupRows int
}

// Bed is one stack: a dfs, a warehouse over it, and the simulated clock the
// warehouse hands out.
type Bed struct {
	Clock *simtime.Sim
	FS    *dfs.FS
	WH    *warehouse.Warehouse
}

// New builds an empty stack.
func New(cfg Config) *Bed {
	if cfg.Start.IsZero() {
		cfg.Start = time.Date(2019, 1, 1, 0, 0, 0, 0, time.UTC)
	}
	b := &Bed{Clock: simtime.NewSim(cfg.Start), FS: dfs.New()}
	b.WH = warehouse.New(b.FS, warehouse.WithClock(b.Clock),
		warehouse.WithWriterOptions(orc.WriterOptions{RowGroupRows: cfg.RowGroupRows}))
	return b
}

// Table is a table to load: where it goes, its schema, and the rows of each
// of its part files in order.
type Table struct {
	DB, Name string
	Schema   orc.Schema
	Parts    [][][]datum.Datum
}

// Load creates each table's database and the table, then appends its parts
// one file each, advancing the clock by step after every part.
func (b *Bed) Load(step time.Duration, tables ...Table) error {
	for _, t := range tables {
		b.WH.CreateDatabase(t.DB)
		if err := b.WH.CreateTable(t.DB, t.Name, t.Schema); err != nil {
			return err
		}
		for _, rows := range t.Parts {
			if _, err := b.WH.AppendRows(t.DB, t.Name, rows); err != nil {
				return err
			}
			b.Clock.Advance(step)
		}
	}
	return nil
}

// SaleLogs is the paper's Fig 1 table, mydb.t (mall_id, date, sale_logs):
// 31 days of mall 0001 in three parts of 10, 10 and 11 days, day d's
// sale_logs document being doc(d).
func SaleLogs(doc func(day int) string) Table {
	t := Table{DB: "mydb", Name: "t",
		Schema: orc.Schema{Columns: []orc.Column{
			{Name: "mall_id", Type: datum.TypeString},
			{Name: "date", Type: datum.TypeString},
			{Name: "sale_logs", Type: datum.TypeString},
		}}}
	day := 1
	for _, n := range []int{10, 10, 11} {
		var rows [][]datum.Datum
		for ; n > 0; n-- {
			rows = append(rows, []datum.Datum{datum.Str("0001"), datum.Str(fmt.Sprintf("201901%02d", day)), datum.Str(doc(day))})
			day++
		}
		t.Parts = append(t.Parts, rows)
	}
	return t
}

// IDDoc is the schema (id BIGINT, doc STRING) of the tables most suites
// query.
var IDDoc = orc.Schema{Columns: []orc.Column{{Name: "id", Type: datum.TypeInt64}, {Name: "doc", Type: datum.TypeString}}}

// Docs is the seeded table db.t (id, doc) the chaos and stress suites share:
// three parts of 12 to 23 rows, ids counting from 0, each document
// {"a": 0..99, "b": "g0".."g2", "nested": {"x": 0..79}}.
func Docs(seed int64) Table {
	rng := rand.New(rand.NewSource(seed))
	t := Table{DB: "db", Name: "t", Schema: IDDoc}
	id := 0
	for f := 0; f < 3; f++ {
		var rows [][]datum.Datum
		for i := 0; i < 12+rng.Intn(12); i++ {
			doc := fmt.Sprintf(`{"a":%d,"b":"g%d","nested":{"x":%d}}`, rng.Intn(100), rng.Intn(3), rng.Intn(80))
			rows = append(rows, []datum.Datum{datum.Int(int64(id)), datum.Str(doc)})
			id++
		}
		t.Parts = append(t.Parts, rows)
	}
	return t
}
