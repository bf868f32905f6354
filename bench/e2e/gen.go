package main

import (
	"fmt"
	"math/rand"
	"strconv"

	"repro"
)

// Data shape. Every seed produces the same schema, vocabularies and row
// counts; only values, filler and request order change, so the work per
// query is the same on every seed up to sampling noise. Every value a query
// reads has the same width on every row: the scorer budgets a path by its
// sampled value bytes, so with variable widths the seed would decide which
// paths cycle_mixed's budget admits on which day.
const (
	seedDays    = 10   // simulated days loaded and replayed before serving
	rowsPerDay  = 1000 // rows appended per table per seeded day
	tinyRows    = 64   // prod.tiny, loaded once
	appendRows  = 250  // rows appended per table per cycle_mixed day
	replaysADay = 3    // a path is an MPJP only if parsed >= 2x/day; 3 leaves a margin
)

var fillerWords = []string{
	"alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel",
	"india", "juliet", "kilo", "lima", "mike", "november", "oscar", "papa",
	"quebec", "romeo", "sierra", "tango", "uniform", "victor", "whiskey", "xray",
}

func appendFiller(b []byte, rng *rand.Rand, words int) []byte {
	for i := 0; i < words; i++ {
		if i > 0 {
			b = append(b, ' ')
		}
		b = append(b, fillerWords[rng.Intn(len(fillerWords))]...)
	}
	return b
}

func appendKV(b []byte, key string, v int) []byte {
	b = append(b, '"')
	b = append(b, key...)
	b = append(b, `":`...)
	return strconv.AppendInt(b, int64(v), 10)
}

func appendKS(b []byte, key, prefix string, v, width int) []byte {
	b = append(b, '"')
	b = append(b, key...)
	b = append(b, `":"`...)
	b = append(b, prefix...)
	s := strconv.Itoa(v)
	for i := len(s); i < width; i++ {
		b = append(b, '0')
	}
	b = append(b, s...)
	return append(b, '"')
}

// docNames names the fields of one big table's documents. Both tables use
// the one shape below, so both clients do about the same work per request.
type docNames struct {
	id                  string
	key, keyPrefix      string // 60 values: the top-N key
	group, groupPrefix  string // 8 values
	class, classPrefix  string // 5 values
	text, text2         string // filler the extractor has to skip
	large, medium, tiny string // measures: 1000..4999, 100..199, 1..9
	object, objectID    string // a nested object with an id and two labels,
	labelA, labelAPfx   string // 4 values
	labelB, labelBPfx   string // 40 values
	array, elemPrefix   string // an array of three labels, 20 values
}

var (
	salesNames = docNames{"order_id", "item_name", "item-", "region", "r", "channel", "ch", "note", "sku",
		"turnover", "price", "qty", "customer", "id", "tier", "tier", "city", "c", "tags", "t"}
	machinesNames = docNames{"sample_id", "host", "node-", "zone", "z", "rack", "k", "msg", "fw",
		"cpu", "mem", "alerts", "os", "build", "name", "os", "ver", "v", "disks", "d"}
)

// doc appends a ~290 B document: flat fields, a nested object, an array, and
// filler. Measures are integers so SUM and AVG are exact whatever order
// partitions merge in.
func (n docNames) doc(b []byte, rng *rand.Rand, id int) []byte {
	b = append(b, '{')
	b = appendKV(b, n.id, id)
	b = append(b, ',')
	b = appendKS(b, n.key, n.keyPrefix, rng.Intn(60), 3)
	b = append(b, ',')
	b = appendKS(b, n.group, n.groupPrefix, rng.Intn(8), 1)
	b = append(b, ',')
	b = appendKS(b, n.class, n.classPrefix, rng.Intn(5), 1)
	b = append(b, `,"`+n.text+`":"`...)
	b = appendFiller(b, rng, 9)
	b = append(b, `",`...)
	b = appendKV(b, n.large, 1000+rng.Intn(4000))
	b = append(b, ',')
	b = appendKV(b, n.medium, 100+rng.Intn(100))
	b = append(b, ',')
	b = appendKV(b, n.tiny, 1+rng.Intn(9))
	b = append(b, `,"`+n.object+`":{`...)
	b = appendKV(b, n.objectID, rng.Intn(100000))
	b = append(b, ',')
	b = appendKS(b, n.labelA, n.labelAPfx, rng.Intn(4), 1)
	b = append(b, ',')
	b = appendKS(b, n.labelB, n.labelBPfx, rng.Intn(40), 2)
	b = append(b, `},"`+n.array+`":[`...)
	for i := 0; i < 3; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '"')
		b = append(b, n.elemPrefix...)
		b = strconv.AppendInt(b, int64(10+rng.Intn(20)), 10)
		b = append(b, '"')
	}
	b = append(b, `],"`+n.text2+`":"`...)
	b = appendFiller(b, rng, 4)
	b = append(b, `",`...)
	b = appendKV(b, "ts", 1546300800+id)
	return append(b, '}')
}

func tinyDoc(b []byte, rng *rand.Rand, id int) []byte {
	b = append(b, '{')
	b = appendKS(b, "k", "key-", id, 2)
	b = append(b, ',')
	b = appendKV(b, "v", rng.Intn(1000))
	b = append(b, `,"pad":"`...)
	b = appendFiller(b, rng, 6)
	return append(b, `"}`...)
}

// tableRows generates one append of n rows: a ds partition column and the
// JSON payload. firstID keeps ids unique across appends.
func tableRows(doc func([]byte, *rand.Rand, int) []byte, rng *rand.Rand, day, firstID, n int) [][]maxson.Datum {
	rows := make([][]maxson.Datum, n)
	ds := maxson.Str(fmt.Sprintf("d%03d", day))
	var buf []byte
	for i := range rows {
		buf = doc(buf[:0], rng, firstID+i)
		rows[i] = []maxson.Datum{ds, maxson.Str(string(buf))}
	}
	return rows
}

// template is one SQL statement of a workload's mix.
type template struct {
	Name  string // "<table>.<shape>", stable across PRs
	Table string
	SQL   string
}

// fields names the JSONPaths one family of query shapes reads. The hot
// families are replayed during seeding (so the midnight cycle caches them);
// the cold families are first seen in the measured phase.
type fields struct {
	topKey, topVal string // top-N: GROUP BY topKey ORDER BY SUM(topVal) DESC LIMIT 10
	grpKey, grpVal string // group-by: COUNT(*), MAX(grpVal) per grpKey
	filt           string // filtered count: filt > filtMin
	filtMin        int
	avgKey, avgVal string // group-by over a nested or array path: AVG(avgVal) per avgKey
}

var (
	salesHot     = fields{"$.item_name", "$.turnover", "$.region", "$.turnover", "$.qty", 6, "$.customer.tier", "$.turnover"}
	salesCold    = fields{"$.customer.city", "$.price", "$.channel", "$.price", "$.price", 150, "$.tags[0]", "$.price"}
	machinesHot  = fields{"$.host", "$.cpu", "$.zone", "$.cpu", "$.alerts", 6, "$.os.name", "$.cpu"}
	machinesCold = fields{"$.os.ver", "$.mem", "$.rack", "$.mem", "$.mem", 150, "$.disks[0]", "$.mem"}
)

// shapes expands one field family into the four query shapes every
// workload over the big tables runs. Rank order is the Zipf order: the first template
// is the most frequent.
func shapes(table, family string, f fields) []template {
	j := func(p string) string { return "get_json_object(payload, '" + p + "')" }
	num := func(p string) string { return "cast_double(" + j(p) + ")" }
	from := " FROM prod." + table
	name := func(shape string) string { return table + "." + family + "_" + shape }
	return []template{
		{name("group"), table, "SELECT " + j(f.grpKey) + " k, COUNT(*) c, MAX(" + num(f.grpVal) + ") m" +
			from + " GROUP BY " + j(f.grpKey) + " ORDER BY k"},
		{name("topn"), table, "SELECT " + j(f.topKey) + " k, SUM(" + num(f.topVal) + ") s" +
			from + " GROUP BY " + j(f.topKey) + " ORDER BY s DESC, k LIMIT 10"},
		{name("filter"), table, "SELECT COUNT(*) c" + from + " WHERE " + num(f.filt) + " > " + strconv.Itoa(f.filtMin)},
		{name("nested"), table, "SELECT " + j(f.avgKey) + " k, AVG(" + num(f.avgVal) + ") a" +
			from + " GROUP BY " + j(f.avgKey) + " ORDER BY k"},
	}
}

var tinyTemplates = []template{
	{"tiny.limit", "tiny", "SELECT get_json_object(payload, '$.k') k, get_json_object(payload, '$.v') v FROM prod.tiny LIMIT 10"},
	{"tiny.count", "tiny", "SELECT COUNT(*) c FROM prod.tiny"},
}

// zipfCounts splits n requests over k templates with weights 1, 1/2, 1/3…
// by largest remainder, so the mix is exact and the same on every seed.
func zipfCounts(n, k int) []int {
	var total float64
	for i := 0; i < k; i++ {
		total += 1 / float64(i+1)
	}
	counts := make([]int, k)
	rem := make([]float64, k)
	left := n
	for i := 0; i < k; i++ {
		exact := float64(n) / float64(i+1) / total
		counts[i] = int(exact)
		rem[i] = exact - float64(counts[i])
		left -= counts[i]
	}
	for ; left > 0; left-- {
		best := 0
		for i := range rem {
			if rem[i] > rem[best] {
				best = i
			}
		}
		counts[best]++
		rem[best] = -1
	}
	return counts
}

// windowOrder returns the template index of each of a window's n requests:
// the Zipf mix, shuffled by rng. Every window has the same composition, so
// windows are comparable and their spread measures the machine, not the mix.
func windowOrder(rng *rand.Rand, n, k int) []int {
	order := make([]int, 0, n)
	for t, c := range zipfCounts(n, k) {
		for i := 0; i < c; i++ {
			order = append(order, t)
		}
	}
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return order
}
