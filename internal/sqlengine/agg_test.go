package sqlengine

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/datum"
	"repro/internal/orc"
	"repro/internal/testbed"
)

// aggRef is the reference state of one group: every aggregate the test's
// queries name, kept the obvious way.
type aggRef struct {
	g                  datum.Datum
	rows, countX       int64
	sumX, sumF         float64
	numX, numF         int64
	minX, maxX         datum.Datum
	minC, maxC         datum.Datum // MIN and MAX of cast_double(x)
	seenX              bool
	countStar, countXd datum.Datum // filled by finish
	sumXd, avgXd       datum.Datum
	minXd, maxXd       datum.Datum
	minCd, maxCd       datum.Datum
	numXd, sumFd       datum.Datum
}

// refFloat converts as cast_double does, spelled with strconv so that the
// reference shares no parsing with the engine.
func refFloat(d datum.Datum) (float64, bool) {
	switch {
	case d.Null:
		return 0, false
	case d.Typ == datum.TypeString:
		f, err := strconv.ParseFloat(d.S, 64)
		return f, err == nil
	case d.Typ == datum.TypeFloat64:
		return d.F, true
	}
	panic("refFloat: unexpected " + d.Typ.String())
}

func (r *aggRef) add(x, f datum.Datum) {
	r.rows++
	if !x.Null {
		r.countX++
		if v, ok := refFloat(x); ok {
			r.sumX += v
			c := datum.Float(v)
			if r.numX == 0 || datum.Compare(c, r.minC) < 0 {
				r.minC = c
			}
			if r.numX == 0 || datum.Compare(c, r.maxC) > 0 {
				r.maxC = c
			}
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
	if v, ok := refFloat(f); ok {
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
	if p.numX > 0 && (r.numX == 0 || datum.Compare(p.minC, r.minC) < 0) {
		r.minC = p.minC
	}
	if p.numX > 0 && (r.numX == 0 || datum.Compare(p.maxC, r.maxC) > 0) {
		r.maxC = p.maxC
	}
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
	r.countStar, r.countXd, r.numXd = datum.Int(r.rows), datum.Int(r.countX), datum.Int(r.numX)
	r.sumXd, r.avgXd, r.sumFd = nullF, nullF, nullF
	r.minCd, r.maxCd = nullS, nullS
	if r.numX > 0 {
		r.sumXd, r.avgXd = datum.Float(r.sumX), datum.Float(r.sumX/float64(r.numX))
		r.minCd, r.maxCd = r.minC, r.maxC
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
func foldRef(splits [][][]datum.Datum, grouped bool, keep func(row []datum.Datum) bool) []*aggRef {
	total := map[string]*aggRef{}
	var order []*aggRef
	for _, rows := range splits {
		part := map[string]*aggRef{}
		var partOrder []string
		for _, row := range rows {
			if !keep(row) {
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
// non-numeric strings, HAVING on an unprojected aggregate, ORDER BY on a
// hidden aggregate key with LIMIT, and filters comparing cast_double(x) by >,
// >=, =, <> and AND with int and float literals (one written on the left)
// over values that include NULL, unparsable text, NaN, -0, 1e3, leading zeros
// and 16-digit integers. Every shape runs twice: as written, and with
// "1 = 1" ANDed into its filter. The seeds run back to back on one engine per
// parallelism and batch size, so the pooled aggregation tables and evaluator
// vectors a query draws have served other shapes, other seeds and the other
// engines before.
func TestAggregationMatchesNaiveFold(t *testing.T) {
	schema := orc.Schema{Columns: []orc.Column{
		{Name: "g", Type: datum.TypeString},
		{Name: "x", Type: datum.TypeString},
		{Name: "f", Type: datum.TypeFloat64},
	}}
	nullS := datum.NullOf(datum.TypeString)
	groups := []datum.Datum{nullS, datum.Str("NULL"), datum.Str("allnull"), datum.Str("words"), datum.Str("mixed"), datum.Str("nums"), datum.Str("edge")}
	xOf := map[string][]datum.Datum{
		"allnull": {nullS},
		"words":   {datum.Str("abc"), datum.Str("zz"), datum.Str("")},
		"mixed":   {datum.Str("10"), datum.Str("9"), datum.Str("abc"), datum.Str("-3.5"), datum.Str("1e2"), nullS},
		"edge": {datum.Str("NaN"), datum.Str("-0"), datum.Str("1e3"), datum.Str("007"), datum.Str("1234567890123456"),
			datum.Str("9007199254740993"), datum.Str("0.1"), datum.Str("2.5e-3"), datum.Str("junk"), datum.Str(" 5"), datum.Str("12"), nullS},
		"": {datum.Str("1"), datum.Str("2.25"), datum.Str("-7"), nullS},
	}
	all := func([]datum.Datum) bool { return true }
	// castIs is the reference for "cast_double(x) op lit": a NULL or
	// unparsable x fails it, and the comparison orders as datum.Compare orders
	// floats, NaN equal to everything.
	castIs := func(op string, lit float64) func([]datum.Datum) bool {
		return func(row []datum.Datum) bool {
			v, ok := refFloat(row[1])
			if !ok {
				return false
			}
			c := 0
			if v < lit {
				c = -1
			} else if v > lit {
				c = 1
			}
			switch op {
			case ">":
				return c > 0
			case ">=":
				return c >= 0
			case "<":
				return c < 0
			case "=":
				return c == 0
			}
			return c != 0
		}
	}
	both := func(a, b func([]datum.Datum) bool) func([]datum.Datum) bool {
		return func(row []datum.Datum) bool { return a(row) && b(row) }
	}

	bed := testbed.New(testbed.Config{})
	type config struct{ par, batch int }
	engines := map[config]*Engine{}
	for _, par := range []int{1, 4} {
		for _, batch := range []int{1, DefaultBatchSize} {
			engines[config{par, batch}] = NewEngine(bed.WH, WithDefaultDB("d"), WithParallelism(par), WithBatchSize(batch))
		}
	}
	for seed := int64(0); seed < 36; seed++ {
		rng := rand.New(rand.NewSource(seed))
		table := fmt.Sprintf("t%d", seed)
		splits := make([][][]datum.Datum, seed%6)
		for s := range splits {
			n := 1 + rng.Intn(40)
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
		}
		if err := bed.Load(0, testbed.Table{DB: "d", Name: table, Schema: schema, Parts: splits}); err != nil {
			t.Fatal(err)
		}

		byGroup := foldRef(splits, true, all)
		aggCols := func(r *aggRef) []datum.Datum {
			return []datum.Datum{r.countStar, r.countXd, r.sumXd, r.avgXd, r.minXd, r.maxXd, r.sumFd}
		}
		const aggList = "COUNT(*), COUNT(x), SUM(x), AVG(x), MIN(x), MAX(x), SUM(f)"
		castCols := func(r *aggRef) []datum.Datum {
			return []datum.Datum{r.countStar, r.numXd, r.sumXd, r.avgXd, r.minCd, r.maxCd, r.sumFd}
		}
		const castList = "COUNT(*), COUNT(cast_double(x)), SUM(cast_double(x)), AVG(x), MIN(cast_double(x)), MAX(cast_double(x)), SUM(f)"
		// A shape is "SELECT sel FROM table where rest".
		type shape struct {
			sel, where, rest string
			want             [][]datum.Datum
			ordered          bool
		}
		var shapes []shape

		// Global aggregates: over every row, and over none.
		for _, where := range []struct {
			sql  string
			keep func([]datum.Datum) bool
		}{
			{"", all},
			{" WHERE g = 'no such group'", func([]datum.Datum) bool { return false }},
			{" WHERE g = 'NULL'", func(row []datum.Datum) bool { return !row[0].Null && row[0].S == "NULL" }},
		} {
			global := foldRef(splits, false, where.keep)
			shapes = append(shapes, shape{sel: aggList, where: where.sql, want: [][]datum.Datum{aggCols(global[0])}})
		}

		grouped := shape{sel: "g, " + aggList, rest: " GROUP BY g"}
		having := shape{sel: "g, MAX(x), SUM(f)", rest: " GROUP BY g HAVING COUNT(*) >= 3"}
		for _, r := range byGroup {
			grouped.want = append(grouped.want, append([]datum.Datum{r.g}, aggCols(r)...))
			if r.rows >= 3 {
				having.want = append(having.want, []datum.Datum{r.g, r.maxXd, r.sumFd})
			}
		}
		shapes = append(shapes, grouped, having)

		top := shape{sel: "g, COUNT(*)", rest: " GROUP BY g ORDER BY SUM(f) DESC, g LIMIT 3", ordered: true}
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

		// Filtered aggregates, global and grouped.
		for _, pred := range []struct {
			sql  string
			keep func([]datum.Datum) bool
		}{
			{"cast_double(x) > 5", castIs(">", 5)},
			{"cast_double(x) >= 2.25", castIs(">=", 2.25)},
			{"cast_double(x) = 1000", castIs("=", 1000)},
			{"cast_double(x) <> 0", castIs("<>", 0)},
			{"cast_double(x) = 1234567890123456", castIs("=", 1234567890123456)},
			{"cast_double(x) >= 0.1 AND cast_double(x) <> 12", both(castIs(">=", 0.1), castIs("<>", 12))},
			{"10 > cast_double(x)", castIs("<", 10)},
			{"cast_double(x) > 1 AND g <> 'words'", both(castIs(">", 1), func(row []datum.Datum) bool { return !row[0].Null && row[0].S != "words" })},
		} {
			where := " WHERE " + pred.sql
			global := foldRef(splits, false, pred.keep)
			shapes = append(shapes, shape{sel: castList, where: where, want: [][]datum.Datum{castCols(global[0])}})
			filtered := shape{sel: "g, " + castList, where: where, rest: " GROUP BY g"}
			for _, r := range foldRef(splits, true, pred.keep) {
				filtered.want = append(filtered.want, append([]datum.Datum{r.g}, castCols(r)...))
			}
			shapes = append(shapes, filtered)
		}

		for _, sh := range shapes {
			want := renderRows(sh.want, !sh.ordered)
			for _, oneEqOne := range []bool{false, true} {
				where := sh.where
				if oneEqOne && where == "" {
					where = " WHERE 1 = 1"
				} else if oneEqOne {
					where += " AND 1 = 1"
				}
				sql := "SELECT " + sh.sel + " FROM " + table + where + sh.rest
				var serial string
				for _, par := range []int{1, 4} {
					for _, batch := range []int{1, DefaultBatchSize} {
						rs := mustQuery(t, engines[config{par, batch}], sql)
						if got := renderRows(rs.Rows, !sh.ordered); got != want {
							t.Fatalf("seed %d (%d splits), parallelism %d, batch %d: %s\n got:\n%s\nwant:\n%s",
								seed, len(splits), par, batch, sql, got, want)
						}
						// Unsorted and with the sums' bits: what one parallelism
						// returns, the other returns byte for byte.
						exact := renderRows(rs.Rows, false)
						if par == 1 && batch == 1 {
							serial = exact
						} else if exact != serial {
							t.Fatalf("seed %d, parallelism %d, batch %d: %s differs from the serial run\n got:\n%s\nserial:\n%s",
								seed, par, batch, sql, exact, serial)
						}
					}
				}
			}
		}
	}
}

// TestColumnTailCountsTheRowLoopsCalls pins that a get_json_object call is
// metered once per call site per row a row at a time would evaluate it on. An
// AND evaluates its next conjunct on a row whose earlier conjunct was NULL,
// so such a row stays selected until its last conjunct. Each shape runs as
// written and with "1 = 1" ANDed in.
func TestColumnTailCountsTheRowLoopsCalls(t *testing.T) {
	bed := testbed.New(testbed.Config{})
	if err := bed.Load(0, testbed.Table{DB: "d", Name: "j", Schema: testbed.IDDoc, Parts: [][][]datum.Datum{{
		{datum.Int(1), datum.Str(`{"a": 1, "b": 5}`)},
		{datum.Int(2), datum.Str(`{"b": 2}`)},
		{datum.Int(3), datum.Str(`{"a": "x", "b": 3}`)},
	}, {
		{datum.Int(4), datum.Str(`{"a": 7}`)},
		{datum.Int(5), datum.Str(`{"a": 0, "b": 9}`)},
	}}}); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(bed.WH, WithDefaultDB("d"))
	for _, tc := range []struct {
		sql   string
		calls int64
	}{
		// $.a on all five rows; $.b on the four $.a did not rule out (rows 2
		// and 3 read NULL for it); the SUM's $.b on the one row that passes.
		{`SELECT COUNT(*) n, SUM(cast_double(get_json_object(doc, '$.b'))) s FROM d.j
			WHERE cast_double(get_json_object(doc, '$.a')) > 0 AND get_json_object(doc, '$.b') > 1`, 5 + 4 + 1},
		// The filter on five rows, the group key on the three that pass.
		{`SELECT get_json_object(doc, '$.b') k, COUNT(*) n FROM d.j
			WHERE cast_double(get_json_object(doc, '$.a')) >= 0 GROUP BY get_json_object(doc, '$.b') ORDER BY k`, 5 + 3},
	} {
		for _, oneEqOne := range []bool{false, true} {
			sql := tc.sql
			if oneEqOne {
				sql = strings.Replace(sql, " GROUP BY", " AND 1 = 1 GROUP BY", 1)
				if !strings.Contains(sql, "1 = 1") {
					sql += " AND 1 = 1"
				}
			}
			_, m, err := e.QueryCtx(context.Background(), sql)
			if err != nil {
				t.Fatal(err)
			}
			if got := m.Parse.Calls.Load(); got != tc.calls {
				t.Errorf("%s: %d calls, want %d", sql, got, tc.calls)
			}
		}
	}
}
