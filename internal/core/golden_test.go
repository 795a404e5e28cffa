package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"igdb/internal/reldb"
)

// goldenPath pins the small-world build and the SQL the codebase issues
// against it. Regenerate with IGDB_UPDATE_GOLDEN=1 go test ./internal/core
// -run TestGoldenSmallWorld, and only when a behaviour change is intended.
const goldenPath = "testdata/golden_small.json"

// corpusDir is the reldb fuzz seed corpus, which the harvester keeps in
// sync with every SQL statement the module issues.
const corpusDir = "../reldb/testdata/fuzz/FuzzParseStatement"

// timingRelations carry wall-clock measurements, so their bytes differ on
// every build; the golden file leaves their contents out.
var timingRelations = map[string]bool{"build_trace": true, "source_status": true}

type goldenQuery struct {
	SQL       string   `json:"sql"`
	Error     string   `json:"error,omitempty"`
	Rows      int      `json:"rows"`
	RowsSHA   string   `json:"rows_sha256,omitempty"`
	Explain   []string `json:"explain,omitempty"`
	ExplainEr string   `json:"explain_error,omitempty"`
}

type golden struct {
	Relations map[string]string `json:"relations"`
	Queries   []goldenQuery     `json:"queries"`
}

// TestGoldenSmallWorld proves behaviour holds across refactors: the content
// hash of every deterministic relation of the shared small-world build, and
// for every harvested corpus SELECT its row count, a hash of its rows and
// its plain EXPLAIN text, must match the committed golden file.
func TestGoldenSmallWorld(t *testing.T) {
	_, g := testDB(t)
	got := golden{Relations: map[string]string{}}
	for _, name := range g.Rel.TableNames() {
		if timingRelations[name] {
			continue
		}
		sum := sha256.Sum256(reldb.EncodeTable(g.Rel.Table(name)))
		got.Relations[name] = hex.EncodeToString(sum[:])
	}
	for _, sql := range corpusSelects(t) {
		got.Queries = append(got.Queries, runGoldenQuery(g.Rel, sql))
	}
	if len(got.Queries) < 30 {
		t.Fatalf("corpus yielded only %d SELECTs; harvest looks broken", len(got.Queries))
	}

	blob, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	blob = append(blob, '\n')
	if os.Getenv("IGDB_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s: %d relations, %d queries", goldenPath, len(got.Relations), len(got.Queries))
		return
	}

	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with IGDB_UPDATE_GOLDEN=1)", err)
	}
	var want golden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for name, h := range want.Relations {
		if got.Relations[name] != h {
			t.Errorf("relation %s: content hash %s, golden %s", name, got.Relations[name], h)
		}
	}
	for name := range got.Relations {
		if _, ok := want.Relations[name]; !ok {
			t.Errorf("relation %s is not in the golden file", name)
		}
	}
	byQuery := map[string]goldenQuery{}
	for _, q := range want.Queries {
		byQuery[q.SQL] = q
	}
	for _, q := range got.Queries {
		w, ok := byQuery[q.SQL]
		if !ok {
			t.Errorf("query %q is not in the golden file", q.SQL)
			continue
		}
		delete(byQuery, q.SQL)
		if q.Error != w.Error || q.Rows != w.Rows || q.RowsSHA != w.RowsSHA {
			t.Errorf("query %q: rows=%d sha=%s err=%q, golden rows=%d sha=%s err=%q",
				q.SQL, q.Rows, q.RowsSHA, q.Error, w.Rows, w.RowsSHA, w.Error)
		}
		if strings.Join(q.Explain, "\n") != strings.Join(w.Explain, "\n") || q.ExplainEr != w.ExplainEr {
			t.Errorf("query %q: EXPLAIN\n%s\ngolden\n%s", q.SQL,
				strings.Join(q.Explain, "\n"), strings.Join(w.Explain, "\n"))
		}
	}
	for sql := range byQuery {
		t.Errorf("golden query %q is no longer in the corpus", sql)
	}
}

// runGoldenQuery executes one SELECT and its plain EXPLAIN. Rows of a query
// that reads a timing-bearing relation are counted but not hashed.
func runGoldenQuery(db *reldb.DB, sql string) goldenQuery {
	q := goldenQuery{SQL: sql}
	if rows, err := db.Query(sql); err != nil {
		q.Error = err.Error()
	} else {
		q.Rows = rows.Len()
		if !readsTimingRelation(sql) {
			h := sha256.New()
			fmt.Fprintf(h, "%q\n", rows.Columns)
			for _, row := range rows.Rows {
				for _, v := range row {
					x := v.Interface()
					fmt.Fprintf(h, "%T:%v\x1f", x, x)
				}
				h.Write([]byte{'\n'})
			}
			q.RowsSHA = hex.EncodeToString(h.Sum(nil))
		}
	}
	if plan, err := db.Explain(sql, false); err != nil {
		q.ExplainEr = err.Error()
	} else {
		q.Explain = plan.Text()
	}
	return q
}

func readsTimingRelation(sql string) bool {
	lower := strings.ToLower(sql)
	for name := range timingRelations {
		if strings.Contains(lower, name) {
			return true
		}
	}
	return false
}

// corpusSelects returns the distinct SELECT statements in the seed corpus,
// sorted.
func corpusSelects(t *testing.T) []string {
	t.Helper()
	entries, err := os.ReadDir(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
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
			if err != nil || seen[sql] {
				continue
			}
			if st, err := reldb.ParseStatement(sql); err == nil {
				if _, ok := st.(*reldb.SelectStmt); ok {
					seen[sql] = true
					out = append(out, sql)
				}
			}
		}
	}
	sort.Strings(out)
	return out
}
