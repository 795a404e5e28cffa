package reldb

import (
	"fmt"
	"testing"
)

// benchOpDB builds worldgen-scale synthetic tables: facts (one row per
// AS-presence observation) and dim (one row per AS), the shape the iGDB
// standardization joins take.
func benchOpDB(b *testing.B, factRows, dimRows int) *DB {
	b.Helper()
	db := New()
	db.MustExec(`CREATE TABLE facts (asn INTEGER, country TEXT, metro TEXT, v REAL)`)
	db.MustExec(`CREATE TABLE dim (asn INTEGER, org TEXT)`)
	facts := make([][]Value, 0, factRows)
	for i := 0; i < factRows; i++ {
		asn := i % dimRows
		facts = append(facts, []Value{
			Int(int64(asn)),
			Text(fmt.Sprintf("C%d", asn%40)),
			Text(fmt.Sprintf("M%d", i%97)),
			Float(float64(i%1000) / 1000.0),
		})
	}
	if err := db.BulkInsert("facts", facts); err != nil {
		b.Fatal(err)
	}
	dims := make([][]Value, 0, dimRows)
	for i := 0; i < dimRows; i++ {
		dims = append(dims, []Value{Int(int64(i)), Text(fmt.Sprintf("ORG%d", i))})
	}
	if err := db.BulkInsert("dim", dims); err != nil {
		b.Fatal(err)
	}
	return db
}

// BenchmarkOperators tracks per-operator executor throughput for
// BENCH_reldb.json: each sub-benchmark isolates one plan operator over the
// worldgen-scale tables and reports input rows/s alongside ns/op.
func BenchmarkOperators(b *testing.B) {
	const factRows, dimRows = 20000, 2000
	db := benchOpDB(b, factRows, dimRows)
	small := benchOpDB(b, 200, 200)

	cases := []struct {
		name string
		db   *DB
		sql  string
		rows int // input rows the measured operator consumes per execution
	}{
		{"Scan", db, `SELECT asn FROM facts`, factRows},
		{"Filter", db, `SELECT asn FROM facts WHERE v < 0.1 AND country != 'C0'`, factRows},
		{"HashJoin", db, `SELECT f.asn FROM facts f JOIN dim d ON d.asn = f.asn`, factRows},
		{"NestedLoopJoin", small, `SELECT f.asn FROM facts f JOIN dim d ON d.asn < f.asn LIMIT 100000`, 200 * 200},
		{"Group", db, `SELECT country, COUNT(*), AVG(v) FROM facts GROUP BY country`, factRows},
		{"Sort", db, `SELECT asn FROM facts ORDER BY v DESC`, factRows},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			stmt, err := c.db.Prepare(c.sql)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := stmt.Query(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(c.rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}

// BenchmarkExplainOverhead compares a query with the same query run as
// EXPLAIN ANALYZE. Every execution runs the planner's tree and counts
// actuals on each operator either way, so the difference is what rendering
// the executed tree as text rows costs.
func BenchmarkExplainOverhead(b *testing.B) {
	db := benchOpDB(b, 20000, 2000)
	const sql = `SELECT f.country, COUNT(*) AS n FROM facts f JOIN dim d ON d.asn = f.asn GROUP BY f.country ORDER BY n DESC LIMIT 10`
	b.Run("PlainQuery", func(b *testing.B) {
		stmt, err := db.Prepare(sql)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := stmt.Query(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ExplainAnalyze", func(b *testing.B) {
		stmt, err := db.Prepare("EXPLAIN ANALYZE " + sql)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := stmt.Query(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
