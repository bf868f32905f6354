package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/datum"
	"repro/internal/orc"
	"repro/internal/pathkey"
	"repro/internal/sqlengine"
	"repro/internal/testbed"
	"repro/internal/warehouse"
)

// goldenTable is db.g: six rows in two parts. Row 6's document has trailing
// garbage, so only the paths whose scans stop short of it read a value.
func goldenTable(t *testing.T) *warehouse.Warehouse {
	t.Helper()
	row := func(id int64, tag datum.Datum, doc string) []datum.Datum {
		return []datum.Datum{datum.Int(id), tag, datum.Str(doc)}
	}
	x, y := datum.Str("x"), datum.Str("y")
	bed := testbed.New(testbed.Config{})
	if err := bed.Load(0, testbed.Table{DB: "db", Name: "g",
		Schema: orc.Schema{Columns: []orc.Column{
			{Name: "id", Type: datum.TypeInt64},
			{Name: "tag", Type: datum.TypeString},
			{Name: "doc", Type: datum.TypeString},
		}},
		Parts: [][][]datum.Datum{{
			row(1, x, `{"k":"a","v":0.1,"s":"Hello"}`),
			row(2, y, `{"k":"NULL","v":0.2,"s":"world"}`),
			row(3, x, `{"v":"n/a","s":null}`),
		}, {
			row(4, y, `{"k":"a","v":0.3}`),
			row(5, datum.NullOf(datum.TypeString), `{"k":"b","v":0.7,"s":"hey"}`),
			row(6, x, `{"k":"b","v":0.6} x`),
		}},
	}); err != nil {
		t.Fatal(err)
	}
	return bed.WH
}

// TestReferenceGoldens pins the reference to answers written by hand, one or
// more per construct of the grammar, and checks the plain engine against it
// on each. An unsupported construct is the reference's error, not a guess.
func TestReferenceGoldens(t *testing.T) {
	wh := goldenTable(t)
	i, f, s := datum.Int, datum.Float, datum.Str
	null := datum.NullOf
	ints := func(ids ...int64) [][]datum.Datum {
		var rows [][]datum.Datum
		for _, id := range ids {
			rows = append(rows, []datum.Datum{i(id)})
		}
		return rows
	}
	// SUM adds each split's partial in float64: (0.1 + 0.2) + (0.3 + 0.7 +
	// 0.6). The rows added one by one give 1.9.
	sum := 1.9000000000000001
	for _, tc := range []struct {
		name string
		sql  string
		want [][]datum.Datum
	}{
		{"where-order", `SELECT id, get_json_object(doc, '$.k') k FROM db.g WHERE id > 4 ORDER BY id`,
			[][]datum.Datum{{i(5), s("b")}, {i(6), s("b")}}},
		{"star", `SELECT * FROM db.g WHERE id = 2`,
			[][]datum.Datum{{i(2), s("y"), s(`{"k":"NULL","v":0.2,"s":"world"}`)}}},
		{"like", `SELECT id FROM db.g WHERE get_json_object(doc, '$.s') LIKE '_e%' ORDER BY id`, ints(1, 5)},
		{"is-null", `SELECT id FROM db.g WHERE get_json_object(doc, '$.k') IS NULL OR tag IS NULL ORDER BY id`, ints(3, 5)},
		{"is-not-null", `SELECT id FROM db.g WHERE get_json_object(doc, '$.s') IS NOT NULL ORDER BY id DESC`, ints(5, 2, 1)},
		{"three-valued", `SELECT id FROM db.g WHERE NOT (tag = 'x') OR id = 3 ORDER BY id`, ints(2, 3, 4)},
		{"between-in", `SELECT id FROM db.g WHERE id BETWEEN 2 AND 3 OR id IN (6) ORDER BY id`, ints(2, 3, 6)},
		{"group-null-apart", `SELECT get_json_object(doc, '$.k') k, COUNT(*) n FROM db.g GROUP BY get_json_object(doc, '$.k') ORDER BY k`,
			[][]datum.Datum{{null(datum.TypeString), i(1)}, {s("NULL"), i(1)}, {s("a"), i(2)}, {s("b"), i(2)}}},
		{"having", `SELECT tag, COUNT(*) n FROM db.g GROUP BY tag HAVING COUNT(*) > 1 ORDER BY tag`,
			[][]datum.Datum{{s("x"), i(3)}, {s("y"), i(2)}}},
		{"hidden-aggregate-key", `SELECT tag FROM db.g GROUP BY tag ORDER BY COUNT(*) DESC`,
			[][]datum.Datum{{s("x")}, {s("y")}, {null(datum.TypeString)}}},
		{"five-aggregates", `SELECT COUNT(*) n, COUNT(get_json_object(doc, '$.s')) c, SUM(cast_double(get_json_object(doc, '$.v'))) total,
			AVG(get_json_object(doc, '$.v')) mean, MIN(id) lo, MAX(get_json_object(doc, '$.k')) hi FROM db.g`,
			[][]datum.Datum{{i(6), i(3), f(sum), f(sum / 5), i(1), s("b")}}},
		{"aggregate-of-nothing", `SELECT COUNT(*) n, SUM(id) s, MIN(tag) m FROM db.g WHERE id > 100`,
			[][]datum.Datum{{i(0), null(datum.TypeFloat64), null(datum.TypeString)}}},
		{"distinct", `SELECT DISTINCT tag FROM db.g ORDER BY tag`,
			[][]datum.Datum{{null(datum.TypeString)}, {s("x")}, {s("y")}}},
		{"distinct-null", `SELECT DISTINCT get_json_object(doc, '$.k') k FROM db.g ORDER BY k`,
			[][]datum.Datum{{null(datum.TypeString)}, {s("NULL")}, {s("a")}, {s("b")}}},
		{"alias-desc-limit", `SELECT id, get_json_object(doc, '$.v') v FROM db.g ORDER BY v DESC LIMIT 2`,
			[][]datum.Datum{{i(3), s("n/a")}, {i(5), s("0.7")}}},
		{"hidden-key-limit", `SELECT get_json_object(doc, '$.k') k FROM db.g ORDER BY id DESC LIMIT 3`,
			[][]datum.Datum{{s("b")}, {s("b")}, {s("a")}}},
		{"join", `SELECT a.id, b.id FROM db.g a JOIN db.g b ON get_json_object(a.doc, '$.k') = get_json_object(b.doc, '$.k')
			WHERE a.id < b.id ORDER BY a.id, b.id`,
			[][]datum.Datum{{i(1), i(4)}, {i(5), i(6)}}},
		{"functions", `SELECT concat(tag, '-', id) c, length(tag) l, upper(tag) u, lower('AbC') lo, abs(id - 10) a,
			cast_bigint('42') b, cast_double(id) d FROM db.g WHERE id = 1`,
			[][]datum.Datum{{s("x-1"), i(1), s("X"), s("abc"), i(9), i(42), f(1)}}},
		// BIGINT arithmetic and casts are exact in int64: 2^53 + 1 survives,
		// an overflow is the DOUBLE result, and a cast out of range is NULL.
		{"integer-exact", `SELECT cast_bigint('9007199254740993') b, 9007199254740993 + 0 s, abs(-9007199254740993) a,
			9007199254740993 % 10 m, cast_bigint('1e30') big, cast_bigint('-1e3') e, 4611686018427387904 * 4 o FROM db.g WHERE id = 1`,
			[][]datum.Datum{{i(9007199254740993), i(9007199254740993), i(9007199254740993), i(3), null(datum.TypeInt64), i(-1000), f(1 << 64)}}},
		{"arithmetic-null", `SELECT id, id / 2 h, id % 4 m, tag = 'x' isx, concat(tag, 'z') cz FROM db.g WHERE id >= 5 ORDER BY id`,
			[][]datum.Datum{
				{i(5), f(2.5), i(1), null(datum.TypeBool), null(datum.TypeString)},
				{i(6), f(3), i(2), datum.Bool(true), s("xz")},
			}},
		{"malformed-document", `SELECT get_json_object(doc, '$.v') v, get_json_object(doc, '$.s') s, get_json_object(doc, '$') r FROM db.g WHERE id = 6`,
			[][]datum.Datum{{s("0.6"), null(datum.TypeString), null(datum.TypeString)}}},
		{"unordered", `SELECT tag FROM db.g WHERE id < 3`, [][]datum.Datum{{s("y")}, {s("x")}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ref, err := referenceQuery(wh, "db", tc.sql)
			if err != nil {
				t.Fatal(err)
			}
			if diff := ref.match(ref.columns, tc.want); diff != "" {
				t.Errorf("reference: %s", diff)
			}
			rs, _, err := sqlengine.NewEngine(wh, sqlengine.WithDefaultDB("db")).QueryCtx(context.Background(), tc.sql)
			if err != nil {
				t.Fatal(err)
			}
			requireReference(t, wh, "db", tc.sql, rs)
		})
	}

	// A LIMIT that cuts an unordered result admits any rows of the whole
	// result, as many as the LIMIT, each at most as often as it occurs.
	ref, err := referenceQuery(wh, "db", `SELECT tag FROM db.g LIMIT 3`)
	if err != nil {
		t.Fatal(err)
	}
	x, y := []datum.Datum{s("x")}, []datum.Datum{s("y")}
	nul := []datum.Datum{null(datum.TypeString)}
	for _, rows := range [][][]datum.Datum{{x, x, x}, {y, nul, x}, {x, y, y}} {
		if diff := ref.match([]string{"tag"}, rows); diff != "" {
			t.Errorf("LIMIT 3 of an unordered result refused %v: %s", rows, diff)
		}
	}
	for _, rows := range [][][]datum.Datum{{x, x}, {y, y, y}, {nul, nul, x}, {x, x, x, x}} {
		if ref.match([]string{"tag"}, rows) == "" {
			t.Errorf("LIMIT 3 of an unordered result accepted %v", rows)
		}
	}

	for _, sql := range []string{
		`SELECT md5(tag) FROM db.g`,
		`SELECT upper(tag, id) FROM db.g`,
		`EXPLAIN SELECT id FROM db.g`,
		`SELECT a.id FROM db.g a JOIN db.g b ON a.id < b.id`,
	} {
		if _, err := referenceQuery(wh, "db", sql); !errors.Is(err, errUnsupported) {
			t.Errorf("%s: reference answered %v, want its unsupported error", sql, err)
		}
	}
}

// TestGetJSONObjectContract pins get_json_object's edge semantics (DESIGN.md,
// "The get_json_object edge contract"): each case's document is a row of a
// raw table, and the path must read the written answer through SQL on the
// raw table, through SQL on the same table fully cached, and in the
// reference. want "NULL" is SQL NULL; every other answer is a string.
func TestGetJSONObjectContract(t *testing.T) {
	const sqlNull = "NULL"
	cases := []struct {
		name, doc, path, want string
	}{
		{"duplicate key: the first wins", `{"a":1,"a":2}`, "$.a", "1"},
		{"duplicate object key: the first wins", `{"a":{"b":1},"a":{"b":2}}`, "$.a.b", "1"},
		{"duplicate key: the later one is not read", `{"a":{"c":1},"a":{"b":2}}`, "$.a.b", sqlNull},
		{"large exponent", `{"n":1e300}`, "$.n", "1e+300"},
		{"negative fraction", `{"n":-0.5}`, "$.n", "-0.5"},
		{"negative zero", `{"n":-0}`, "$.n", "-0"},
		{"whole float", `{"n":1.0}`, "$.n", "1"},
		{"capital exponent", `{"n":1E2}`, "$.n", "100"},
		{"2^53+1", `{"n":9007199254740993}`, "$.n", "9007199254740993"},
		{"20-digit integer", `{"n":12345678901234567890}`, "$.n", "12345678901234567890"},
		{"escaped e acute", `{"s":"caf\u00e9"}`, "$.s", "café"},
		{"surrogate pair", `{"s":"\ud83d\ude00"}`, "$.s", "\U0001F600"},
		{"escaped solidus", `{"s":"a\/b"}`, "$.s", "a/b"},
		{"lone surrogate", `{"s":"x\ud800y"}`, "$.s", "x\uFFFDy"},
		{"JSON null", `{"x":null}`, "$.x", sqlNull},
		{"absent path", `{"y":1}`, "$.x", sqlNull},
		{"the string null", `{"x":"null"}`, "$.x", "null"},
		{"empty string", `{"x":""}`, "$.x", ""},
		{"object whole", `{"o": {"b": [1, 2], "c" : "d"}}`, "$.o", `{"b":[1,2],"c":"d"}`},
		{"array whole", `{"a": [1, "x", null, {"k": true}]}`, "$.a", `[1,"x",null,{"k":true}]`},
		{"the string NaN", `{"x":"NaN"}`, "$.x", "NaN"},
	}
	// cast_bigint of a path's text (DESIGN.md, "Integer semantics"): each row
	// reads cast_bigint(get_json_object(doc, path)), a BIGINT.
	casts := []struct{ name, doc, path, want string }{
		{"cast_bigint: integer text is exact", `{"n":9007199254740993}`, "$.n", "9007199254740993"},
		{"cast_bigint: out of range is NULL", `{"n":1e30}`, "$.n", sqlNull},
	}
	bed := testbed.New(testbed.Config{RowGroupRows: 4})
	table := testbed.Table{DB: "db", Name: "t", Schema: testbed.IDDoc, Parts: [][][]datum.Datum{nil}}
	var paths []string
	for id, c := range append(cases, casts...) {
		table.Parts[0] = append(table.Parts[0], []datum.Datum{datum.Int(int64(id)), datum.Str(c.doc)})
		if !slices.Contains(paths, c.path) {
			paths = append(paths, c.path)
		}
	}
	if err := bed.Load(0, table); err != nil {
		t.Fatal(err)
	}
	raw := sqlengine.NewEngine(bed.WH, sqlengine.WithDefaultDB("db"))
	cached := New(sqlengine.NewEngine(bed.WH, sqlengine.WithDefaultDB("db")), Config{BudgetBytes: 1 << 30, DefaultDB: "db"})
	var profiles []*PathProfile
	for _, p := range paths {
		profiles = append(profiles, &PathProfile{Key: pathkey.Key{DB: "db", Table: "t", Column: "doc", Path: p}, TotalValueBytes: 1})
	}
	if _, err := cached.CacheSelected(context.Background(), profiles); err != nil {
		t.Fatal(err)
	}

	// One query per path reads every row; each case checks its own row.
	var items []string
	for n, p := range paths {
		items = append(items, fmt.Sprintf("get_json_object(doc, '%s') p%d", p, n))
	}
	for n, c := range casts {
		items = append(items, fmt.Sprintf("cast_bigint(get_json_object(doc, '%s')) c%d", c.path, n))
	}
	sql := "SELECT id, " + strings.Join(items, ", ") + " FROM db.t ORDER BY id"
	rawRS, _, err := raw.QueryCtx(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	cachedRS, met, err := cached.QueryCtx(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	if met.Parse.Docs.Load() != 0 {
		t.Errorf("the cached table parsed %d documents", met.Parse.Docs.Load())
	}
	ref, err := referenceQuery(bed.WH, "db", sql)
	if err != nil {
		t.Fatal(err)
	}
	for id, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			col := 1 + slices.Index(paths, c.path)
			for _, lane := range []struct {
				name string
				rows [][]datum.Datum
			}{{"raw", rawRS.Rows}, {"cached", cachedRS.Rows}, {"reference", ref.rows}} {
				got := lane.rows[id][col]
				if got.AsString() != c.want || got.Null != (c.want == sqlNull) || !got.Null && got.Typ != datum.TypeString {
					t.Errorf("%s: %s over %s = %s, want %q", lane.name, c.path, c.doc, renderRow([]datum.Datum{got}), c.want)
				}
			}
		})
	}
	for n, c := range casts {
		t.Run(c.name, func(t *testing.T) {
			for _, rows := range [][][]datum.Datum{rawRS.Rows, cachedRS.Rows, ref.rows} {
				got := rows[len(cases)+n][1+len(paths)+n]
				if got.AsString() != c.want || got.Null != (c.want == sqlNull) || got.Typ != datum.TypeInt64 {
					t.Errorf("cast_bigint(%s) over %s = %s, want %q", c.path, c.doc, renderRow([]datum.Datum{got}), c.want)
				}
			}
		})
	}
}
