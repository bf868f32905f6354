package sqlengine

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/datum"
	"repro/internal/dfs"
	"repro/internal/orc"
	"repro/internal/warehouse"
)

// aggRef is the reference state of one group: every aggregate the test's
// queries name, kept the obvious way.
type aggRef struct {
	g                  datum.Datum
	rows, countX       int64
	sumX, sumF         float64
	numX, numF         int64
	minX, maxX         datum.Datum
	seenX              bool
	countStar, countXd datum.Datum // filled by finish
	sumXd, avgXd       datum.Datum
	minXd, maxXd       datum.Datum
	sumFd              datum.Datum
}

func (r *aggRef) add(x, f datum.Datum) {
	r.rows++
	if !x.Null {
		r.countX++
		if v, ok := x.AsFloat(); ok {
			r.sumX += v
			r.numX++
		}
		if !r.seenX || datum.Compare(x, r.minX) < 0 {
			r.minX = x
		}
		if !r.seenX || datum.Compare(x, r.maxX) > 0 {
			r.maxX = x
		}
		r.seenX = true
	}
	if v, ok := f.AsFloat(); ok {
		r.sumF += v
		r.numF++
	}
}

// absorb adds a later split's partial state. The executor's contract is that a
// group's partial sums are added in split order, which is what makes a float
// SUM independent of the parallelism; the reference folds the same way.
func (r *aggRef) absorb(p *aggRef) {
	r.rows += p.rows
	r.countX += p.countX
	r.sumX += p.sumX
	r.numX += p.numX
	r.sumF += p.sumF
	r.numF += p.numF
	if p.seenX && (!r.seenX || datum.Compare(p.minX, r.minX) < 0) {
		r.minX = p.minX
	}
	if p.seenX && (!r.seenX || datum.Compare(p.maxX, r.maxX) > 0) {
		r.maxX = p.maxX
	}
	r.seenX = r.seenX || p.seenX
}

func (r *aggRef) finish() {
	nullF, nullS := datum.NullOf(datum.TypeFloat64), datum.NullOf(datum.TypeString)
	r.countStar, r.countXd = datum.Int(r.rows), datum.Int(r.countX)
	r.sumXd, r.avgXd, r.sumFd = nullF, nullF, nullF
	if r.numX > 0 {
		r.sumXd, r.avgXd = datum.Float(r.sumX), datum.Float(r.sumX/float64(r.numX))
	}
	if r.numF > 0 {
		r.sumFd = datum.Float(r.sumF)
	}
	r.minXd, r.maxXd = nullS, nullS
	if r.seenX {
		r.minXd, r.maxXd = r.minX, r.maxX
	}
}

// foldRef aggregates splits (rows of g, x, f) into groups. grouped=false is the
// global aggregate: one group whatever the rows, present even with none.
func foldRef(splits [][][]datum.Datum, grouped bool, keep func(g datum.Datum) bool) []*aggRef {
	total := map[string]*aggRef{}
	var order []*aggRef
	for _, rows := range splits {
		part := map[string]*aggRef{}
		var partOrder []string
		for _, row := range rows {
			if !keep(row[0]) {
				continue
			}
			key, g := "", datum.Datum{}
			if grouped {
				g = row[0]
				key = fmt.Sprintf("%v/%s", g.Null, g.S) // NULL is not the string "NULL"
			}
			if part[key] == nil {
				part[key] = &aggRef{g: g}
				partOrder = append(partOrder, key)
			}
			part[key].add(row[1], row[2])
		}
		for _, key := range partOrder {
			if total[key] == nil {
				total[key] = part[key]
				order = append(order, part[key])
			} else {
				total[key].absorb(part[key])
			}
		}
	}
	if !grouped && len(order) == 0 {
		order = append(order, &aggRef{})
	}
	for _, r := range order {
		r.finish()
	}
	return order
}

// renderRows renders rows with their types and, for floats, their bits, so
// equal strings mean byte-identical results. sorted canonicalizes results
// whose order the query does not fix.
func renderRows(rows [][]datum.Datum, sorted bool) string {
	out := make([]string, len(rows))
	for i, row := range rows {
		cells := make([]string, len(row))
		for j, d := range row {
			switch {
			case d.Null:
				cells[j] = "NULL:" + d.Typ.String()
			case d.Typ == datum.TypeFloat64:
				cells[j] = fmt.Sprintf("f:%016x(%v)", math.Float64bits(d.F), d.F)
			case d.Typ == datum.TypeInt64:
				cells[j] = fmt.Sprintf("i:%d", d.I)
			default:
				cells[j] = fmt.Sprintf("s:%q", d.S)
			}
		}
		out[i] = strings.Join(cells, " | ")
	}
	if sorted {
		sort.Strings(out)
	}
	return strings.Join(out, "\n")
}

// TestAggregationMatchesNaiveFold runs random rows through 0-5 splits at batch
// sizes {1, default} and parallelism {1, 4} and requires every aggregate shape
// to equal the reference fold above, bit for bit: a global aggregate over zero
// rows, the NULL group beside the group named "NULL", groups present in only
// some splits, MIN/MAX over all-NULL and mixed numeric/string values, SUM over
// non-numeric strings, HAVING on an unprojected aggregate, and ORDER BY on a
// hidden aggregate key with LIMIT. The seeds run back to back on one engine
// per parallelism and batch size, so the pooled aggregation tables a query
// draws have served other shapes, other seeds and the other engines before.
func TestAggregationMatchesNaiveFold(t *testing.T) {
	schema := orc.Schema{Columns: []orc.Column{
		{Name: "g", Type: datum.TypeString},
		{Name: "x", Type: datum.TypeString},
		{Name: "f", Type: datum.TypeFloat64},
	}}
	nullS := datum.NullOf(datum.TypeString)
	groups := []datum.Datum{nullS, datum.Str("NULL"), datum.Str("allnull"), datum.Str("words"), datum.Str("mixed"), datum.Str("nums")}
	xOf := map[string][]datum.Datum{
		"allnull": {nullS},
		"words":   {datum.Str("abc"), datum.Str("zz"), datum.Str("")},
		"mixed":   {datum.Str("10"), datum.Str("9"), datum.Str("abc"), datum.Str("-3.5"), datum.Str("1e2"), nullS},
		"":        {datum.Str("1"), datum.Str("2.25"), datum.Str("-7"), nullS},
	}
	all := func(datum.Datum) bool { return true }

	wh := warehouse.New(dfs.New())
	wh.CreateDatabase("d")
	type config struct{ par, batch int }
	engines := map[config]*Engine{}
	for _, par := range []int{1, 4} {
		for _, batch := range []int{1, DefaultBatchSize} {
			engines[config{par, batch}] = NewEngine(wh, WithDefaultDB("d"), WithParallelism(par), WithBatchSize(batch))
		}
	}
	for seed := int64(0); seed < 36; seed++ {
		rng := rand.New(rand.NewSource(seed))
		table := fmt.Sprintf("t%d", seed)
		if err := wh.CreateTable("d", table, schema); err != nil {
			t.Fatal(err)
		}
		splits := make([][][]datum.Datum, seed%6)
		for s := range splits {
			n := 1 + rng.Intn(12)
			for i := 0; i < n; i++ {
				g := groups[rng.Intn(len(groups))]
				if s == len(splits)-1 && rng.Intn(3) == 0 {
					g = datum.Str("lastonly") // a group only the last split has
				}
				xs := xOf[g.S]
				if xs == nil || g.Null {
					xs = xOf[""]
				}
				f := datum.Float(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(12)-4)))
				switch rng.Intn(8) {
				case 0:
					f = datum.NullOf(datum.TypeFloat64)
				case 1:
					f = datum.Float(math.Copysign(0, -1))
				}
				splits[s] = append(splits[s], []datum.Datum{g, xs[rng.Intn(len(xs))], f})
			}
			if _, err := wh.AppendRows("d", table, splits[s]); err != nil {
				t.Fatal(err)
			}
		}

		byGroup := foldRef(splits, true, all)
		aggCols := func(r *aggRef) []datum.Datum {
			return []datum.Datum{r.countStar, r.countXd, r.sumXd, r.avgXd, r.minXd, r.maxXd, r.sumFd}
		}
		const aggList = "COUNT(*), COUNT(x), SUM(x), AVG(x), MIN(x), MAX(x), SUM(f)"
		type shape struct {
			sql     string
			want    [][]datum.Datum
			ordered bool
		}
		var shapes []shape

		// Global aggregates: over every row, and over none.
		for _, where := range []struct {
			sql  string
			keep func(datum.Datum) bool
		}{
			{"", all},
			{" WHERE g = 'no such group'", func(datum.Datum) bool { return false }},
			{" WHERE g = 'NULL'", func(g datum.Datum) bool { return !g.Null && g.S == "NULL" }},
		} {
			global := foldRef(splits, false, where.keep)
			shapes = append(shapes, shape{sql: "SELECT " + aggList + " FROM " + table + where.sql, want: [][]datum.Datum{aggCols(global[0])}})
		}

		grouped := shape{sql: "SELECT g, " + aggList + " FROM " + table + " GROUP BY g"}
		having := shape{sql: "SELECT g, MAX(x), SUM(f) FROM " + table + " GROUP BY g HAVING COUNT(*) >= 3"}
		for _, r := range byGroup {
			grouped.want = append(grouped.want, append([]datum.Datum{r.g}, aggCols(r)...))
			if r.rows >= 3 {
				having.want = append(having.want, []datum.Datum{r.g, r.maxXd, r.sumFd})
			}
		}
		shapes = append(shapes, grouped, having)

		top := shape{sql: "SELECT g, COUNT(*) FROM " + table + " GROUP BY g ORDER BY SUM(f) DESC, g LIMIT 3", ordered: true}
		ranked := append([]*aggRef(nil), byGroup...)
		sort.SliceStable(ranked, func(a, b int) bool {
			if c := datum.Compare(ranked[a].sumFd, ranked[b].sumFd); c != 0 {
				return c > 0
			}
			return datum.Compare(ranked[a].g, ranked[b].g) < 0
		})
		for _, r := range ranked[:min(3, len(ranked))] {
			top.want = append(top.want, []datum.Datum{r.g, r.countStar})
		}
		shapes = append(shapes, top)

		for _, sh := range shapes {
			want := renderRows(sh.want, !sh.ordered)
			var serial string
			for _, par := range []int{1, 4} {
				for _, batch := range []int{1, DefaultBatchSize} {
					rs := mustQuery(t, engines[config{par, batch}], sh.sql)
					if got := renderRows(rs.Rows, !sh.ordered); got != want {
						t.Fatalf("seed %d (%d splits), parallelism %d, batch %d: %s\n got:\n%s\nwant:\n%s",
							seed, len(splits), par, batch, sh.sql, got, want)
					}
					// Unsorted and with the sums' bits: what one parallelism
					// returns, the other returns byte for byte.
					exact := renderRows(rs.Rows, false)
					if par == 1 && batch == 1 {
						serial = exact
					} else if exact != serial {
						t.Fatalf("seed %d, parallelism %d, batch %d: %s differs from the serial run\n got:\n%s\nserial:\n%s",
							seed, par, batch, sh.sql, exact, serial)
					}
				}
			}
		}
	}
}
