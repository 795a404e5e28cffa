package reldb_test

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"igdb/internal/core"
	"igdb/internal/reldb"
)

func explainTestDB(t testing.TB) *reldb.DB {
	t.Helper()
	db := reldb.New()
	db.MustExec("CREATE TABLE cities (id INTEGER, name TEXT, country TEXT, pop INTEGER)")
	db.MustExec("CREATE TABLE links (src INTEGER, dst INTEGER, km REAL)")
	db.MustExec("CREATE INDEX ON cities (id)")
	db.MustExec("INSERT INTO cities VALUES (1,'ashburn','US',120), (2,'fremont','US',230), (3,'lyon','FR',500), (4,'paris','FR',2100)")
	db.MustExec("INSERT INTO links VALUES (1,3,6200.5), (1,4,6180.0), (2,3,9100.25), (3,4,390.0)")
	return db
}

// collect flattens the tree pre-order for shape assertions.
func planOps(n *reldb.PlanNode) []string {
	var ops []string
	n.Walk(func(p *reldb.PlanNode, _ int) { ops = append(ops, p.Op) })
	return ops
}

func TestExplainPlanShape(t *testing.T) {
	db := explainTestDB(t)
	tests := []struct {
		sql  string
		want []string // pre-order op sequence
	}{
		{"SELECT name FROM cities",
			[]string{"project", "scan"}},
		{"SELECT name FROM cities WHERE pop > 200",
			[]string{"project", "filter", "scan"}},
		{"SELECT DISTINCT country FROM cities ORDER BY country LIMIT 2",
			[]string{"limit", "sort", "distinct", "project", "scan"}},
		{"SELECT country, COUNT(*) FROM cities GROUP BY country",
			[]string{"group", "scan"}},
		{"SELECT c.name FROM cities c JOIN links l ON l.src = c.id",
			[]string{"project", "hash_join", "scan", "scan"}},
		{"SELECT c.name FROM cities c JOIN links l ON l.src < c.id",
			[]string{"project", "nested_loop_join", "scan", "scan"}},
		{"SELECT 1+1",
			[]string{"project", "values"}},
	}
	for _, tc := range tests {
		plan, err := db.Explain(tc.sql, false)
		if err != nil {
			t.Fatalf("Explain(%q): %v", tc.sql, err)
		}
		got := planOps(plan)
		if strings.Join(got, " ") != strings.Join(tc.want, " ") {
			t.Errorf("Explain(%q) ops = %v, want %v", tc.sql, got, tc.want)
		}
		// Plain EXPLAIN must not execute: no actuals anywhere.
		plan.Walk(func(p *reldb.PlanNode, _ int) {
			if p.Actual != nil {
				t.Errorf("Explain(%q): node %s has actuals without ANALYZE", tc.sql, p.Op)
			}
		})
	}
}

func TestExplainAnalyzeActuals(t *testing.T) {
	db := explainTestDB(t)
	sql := "SELECT c.country, COUNT(*) AS n FROM cities c JOIN links l ON l.src = c.id WHERE c.pop > 100 GROUP BY c.country ORDER BY n DESC LIMIT 1"
	plan, err := db.Explain(sql, true)
	if err != nil {
		t.Fatal(err)
	}
	byOp := map[string]*reldb.PlanNode{}
	plan.Walk(func(p *reldb.PlanNode, _ int) {
		byOp[p.Op] = p
		if p.Actual == nil {
			t.Fatalf("node %s missing actuals", p.Op)
		}
		if p.Actual.Loops < 1 {
			t.Errorf("node %s: loops = %d, want >= 1", p.Op, p.Actual.Loops)
		}
	})
	// 4 joined rows survive (every link src has pop > 100).
	if got := byOp["hash_join"].Actual.RowsOut; got != 4 {
		t.Errorf("hash_join rows_out = %d, want 4", got)
	}
	if got := byOp["filter"].Actual; got.RowsIn != 4 || got.RowsOut != 4 {
		t.Errorf("filter in/out = %d/%d, want 4/4", got.RowsIn, got.RowsOut)
	}
	// Two countries grouped, limit keeps one.
	if got := byOp["group"].Actual.RowsOut; got != 2 {
		t.Errorf("group rows_out = %d, want 2", got)
	}
	if got := byOp["limit"].Actual; got.RowsIn != 2 || got.RowsOut != 1 {
		t.Errorf("limit in/out = %d/%d, want 2/1", got.RowsIn, got.RowsOut)
	}
	// The hash join reads its right side once to build the hash table.
	if got := rightScan(t, byOp["hash_join"]).Actual; got.Loops != 1 || got.RowsOut != 4 {
		t.Errorf("hash join right scan loops/out = %d/%d, want 1/4", got.Loops, got.RowsOut)
	}

	// A nested loop's right-side scan reports what it really did: one loop
	// per left row, and every row it emitted across those loops — for
	// inner and LEFT joins alike.
	loops := []struct {
		sql             string
		left, rows, out int // left rows, right-scan rows out, join rows out
	}{
		// 4 cities x 4 links; l.src < c.id matches 0+2+3+4 = 9 pairs.
		{"SELECT c.name, l.km FROM cities c JOIN links l ON l.src < c.id", 4, 16, 9},
		// LEFT JOIN also keeps ashburn (id 1): no link has src < 1.
		{"SELECT c.name, l.km FROM cities c LEFT JOIN links l ON l.src < c.id", 4, 16, 10},
		// Only lyon passes c.pop > 300 with a link dst > its id (two of
		// them); the other three cities come back NULL-padded.
		{"SELECT c.name FROM cities c LEFT JOIN links l ON l.dst > c.id AND c.pop > 300", 4, 16, 5},
	}
	for _, tc := range loops {
		plan, err := db.Explain(tc.sql, true)
		if err != nil {
			t.Fatalf("Explain(%q): %v", tc.sql, err)
		}
		var join *reldb.PlanNode
		plan.Walk(func(p *reldb.PlanNode, _ int) {
			if p.Op == reldb.OpLoopJoin {
				join = p
			}
		})
		if join == nil {
			t.Fatalf("%q: no nested-loop join in plan:\n%s", tc.sql, strings.Join(plan.Text(), "\n"))
		}
		scan := rightScan(t, join).Actual
		if scan.Loops != tc.left || scan.RowsOut != tc.rows {
			t.Errorf("%q: right scan loops/out = %d/%d, want %d/%d", tc.sql, scan.Loops, scan.RowsOut, tc.left, tc.rows)
		}
		if got := join.Actual; got.RowsIn != tc.left || got.RowsOut != tc.out {
			t.Errorf("%q: join in/out = %d/%d, want %d/%d", tc.sql, got.RowsIn, got.RowsOut, tc.left, tc.out)
		}
		rows, err := db.Query(tc.sql)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Actual.RowsOut != rows.Len() {
			t.Errorf("%q: root rows_out = %d, Query returned %d", tc.sql, plan.Actual.RowsOut, rows.Len())
		}
	}
}

// rightScan returns a join's right-side scan child.
func rightScan(t *testing.T, join *reldb.PlanNode) *reldb.PlanNode {
	t.Helper()
	if join == nil || len(join.Children) != 2 || join.Children[1].Op != reldb.OpScan {
		t.Fatalf("join node %+v has no right-side scan", join)
	}
	return join.Children[1]
}

func TestExplainAnalyzeMatchesExecution(t *testing.T) {
	db := explainTestDB(t)
	sql := "SELECT country, SUM(pop) FROM cities GROUP BY country ORDER BY 2 DESC"
	direct, err := db.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := db.Explain(sql, true)
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.Actual.RowsOut; got != direct.Len() {
		t.Errorf("root rows_out = %d, direct query returned %d", got, direct.Len())
	}
}

func TestExplainThroughQuery(t *testing.T) {
	db := explainTestDB(t)
	rows, err := db.Query("EXPLAIN ANALYZE SELECT name FROM cities WHERE country = 'US'")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Columns) != 1 || rows.Columns[0] != "plan" {
		t.Fatalf("columns = %v, want [plan]", rows.Columns)
	}
	text := ""
	for _, r := range rows.Rows {
		text += r[0].String() + "\n"
	}
	for _, want := range []string{"project", "filter (country = 'US')", "scan cities", "actual:", "[hash(id)]"} {
		if !strings.Contains(text, want) {
			t.Errorf("rendered plan missing %q:\n%s", want, text)
		}
	}
}

func TestExplainJSONRendering(t *testing.T) {
	db := explainTestDB(t)
	plan, err := db.Explain("SELECT c.name FROM cities c JOIN links l ON l.src = c.id LIMIT 2", true)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(plan)
	if err != nil {
		t.Fatal(err)
	}
	var back reldb.PlanNode
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if strings.Join(planOps(&back), " ") != strings.Join(planOps(plan), " ") {
		t.Errorf("JSON round-trip changed op sequence")
	}
	if !strings.Contains(string(blob), `"rows_out"`) {
		t.Errorf("JSON missing actuals: %s", blob)
	}
}

func TestExplainErrors(t *testing.T) {
	db := explainTestDB(t)
	if _, err := db.Query("EXPLAIN EXPLAIN SELECT 1"); err == nil {
		t.Error("nested EXPLAIN accepted")
	}
	if _, err := db.Query("EXPLAIN ANALYZE DELETE FROM cities"); err == nil {
		t.Error("EXPLAIN ANALYZE of DML accepted")
	}
	if _, err := db.Query("EXPLAIN SELECT * FROM nope"); err == nil {
		t.Error("EXPLAIN of missing table accepted")
	}
	// Plain EXPLAIN of DML is read-only planning and must work — and must
	// not execute the statement.
	rows, err := db.Query("EXPLAIN DELETE FROM cities WHERE pop > 0")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() == 0 {
		t.Error("EXPLAIN DELETE returned no plan")
	}
	if n := db.MustQuery("SELECT COUNT(*) FROM cities").Rows[0][0]; n.String() != "4" {
		t.Errorf("EXPLAIN DELETE executed the delete: %s cities left", n)
	}
	// Prepare gates EXPLAIN ANALYZE of writes behind ErrNotSelect.
	if _, err := db.Prepare("EXPLAIN ANALYZE UPDATE cities SET pop = 0"); !errors.Is(err, reldb.ErrNotSelect) {
		t.Errorf("Prepare(EXPLAIN ANALYZE UPDATE) err = %v, want ErrNotSelect", err)
	}
	if _, err := db.Prepare("EXPLAIN INSERT INTO cities VALUES (9,'x','Y',1)"); err != nil {
		t.Errorf("Prepare(plain EXPLAIN INSERT) err = %v, want nil", err)
	}
}

func TestExplainPreparedStmt(t *testing.T) {
	db := explainTestDB(t)
	stmt, err := db.Prepare("EXPLAIN ANALYZE SELECT name FROM cities WHERE pop > 100")
	if err != nil {
		t.Fatal(err)
	}
	defer stmt.Close()
	if !stmt.IsExplain() || !stmt.IsAnalyze() {
		t.Fatal("IsExplain/IsAnalyze false for EXPLAIN ANALYZE stmt")
	}
	plan, err := stmt.Explain()
	if err != nil {
		t.Fatal(err)
	}
	if plan.Actual == nil {
		t.Fatal("prepared EXPLAIN ANALYZE returned no actuals")
	}
	// Repeated execution stays correct (fresh plan per call).
	plan2, err := stmt.Explain()
	if err != nil {
		t.Fatal(err)
	}
	if plan2.Actual.RowsOut != plan.Actual.RowsOut {
		t.Errorf("repeat rows_out = %d, want %d", plan2.Actual.RowsOut, plan.Actual.RowsOut)
	}
	plain, err := db.Prepare("SELECT 1")
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if plain.IsExplain() {
		t.Error("plain SELECT reports IsExplain")
	}
	if _, err := plain.Explain(); !errors.Is(err, reldb.ErrNotSelect) {
		t.Errorf("Explain on plain SELECT err = %v, want ErrNotSelect", err)
	}
}

// readCorpusSeeds parses the `go test fuzz v1` seed files the harvester
// maintains, returning the raw SQL statements.
func readCorpusSeeds(t *testing.T) []string {
	t.Helper()
	entries, err := os.ReadDir(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(corpusDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(data), "\n") {
			line = strings.TrimSpace(line)
			if !strings.HasPrefix(line, "string(") || !strings.HasSuffix(line, ")") {
				continue
			}
			sql, err := strconv.Unquote(line[len("string(") : len(line)-1])
			if err != nil {
				continue
			}
			out = append(out, sql)
		}
	}
	if len(out) == 0 {
		t.Fatal("no corpus seeds found")
	}
	return out
}

// TestExplainHarvestedCorpus proves EXPLAIN covers the SQL the codebase
// actually issues: every harvested corpus statement must EXPLAIN, and every
// SELECT must EXPLAIN ANALYZE with actuals on each operator and a root
// rows_out equal to the row count Query returns.
func TestExplainHarvestedCorpus(t *testing.T) {
	db := reldb.New()
	for _, ddl := range core.SchemaDDL {
		db.MustExec(ddl)
	}
	selects, analyzed := 0, 0
	for _, sql := range readCorpusSeeds(t) {
		st, err := reldb.ParseStatement(sql)
		if err != nil {
			continue // fuzzer-found seeds need not be valid SQL
		}
		trimmed := strings.TrimSpace(sql)
		if strings.HasPrefix(strings.ToUpper(trimmed), "EXPLAIN") {
			continue // already an EXPLAIN; re-wrapping is rejected by design
		}
		if _, err := db.Query("EXPLAIN " + trimmed); err != nil {
			// CREATE TABLE seeds collide with the installed schema only at
			// execution; planning must still succeed.
			t.Errorf("EXPLAIN %q: %v", sql, err)
			continue
		}
		if _, ok := st.(*reldb.SelectStmt); !ok {
			continue
		}
		selects++
		plan, err := db.Explain(trimmed, true)
		if err != nil {
			t.Errorf("EXPLAIN ANALYZE %q: %v", sql, err)
			continue
		}
		ok := true
		plan.Walk(func(p *reldb.PlanNode, _ int) {
			if p.Actual == nil {
				ok = false
			}
		})
		if !ok {
			t.Errorf("EXPLAIN ANALYZE %q: operators missing actuals", sql)
			continue
		}
		rows, err := db.Query(trimmed)
		if err != nil {
			t.Errorf("Query %q: %v", sql, err)
			continue
		}
		if plan.Actual.RowsOut != rows.Len() {
			t.Errorf("EXPLAIN ANALYZE %q: root rows_out = %d, Query returned %d rows", sql, plan.Actual.RowsOut, rows.Len())
			continue
		}
		analyzed++
	}
	if selects < 30 {
		t.Fatalf("corpus yielded only %d SELECTs; harvest looks broken", selects)
	}
	if analyzed != selects {
		t.Fatalf("only %d/%d corpus SELECTs produced full actuals", analyzed, selects)
	}
	t.Logf("EXPLAIN ANALYZE over corpus: %d SELECTs, all with actuals", analyzed)
}
