package core

import (
	"bytes"
	"runtime"
	"testing"

	"igdb/internal/reldb"
)

// reinferStandardPaths reruns standard-path inference of the small world on
// a fresh database, so the stage can run again without duplicate rows.
func reinferStandardPaths(tb testing.TB, g *IGDB) *reldb.DB {
	tb.Helper()
	db := reldb.New()
	for _, ddl := range SchemaDDL {
		if _, err := db.Exec(ddl); err != nil {
			tb.Fatal(err)
		}
	}
	h := &IGDB{Cities: g.Cities, Row: g.Row, AsOf: g.AsOf, Rel: db, pendingAdjacencies: g.pendingAdjacencies}
	if err := h.inferStandardPaths(BuildOptions{}); err != nil {
		tb.Fatal(err)
	}
	return db
}

// std_paths must not depend on how many workers route the sources: the
// rows at GOMAXPROCS 1 and 4 equal the build's own, byte for byte.
func TestStdPathsSameAtAnyGOMAXPROCS(t *testing.T) {
	_, g := testDB(t)
	want := reldb.EncodeTable(g.Rel.Table("std_paths"))
	if g.Rel.Table("std_paths").Len() == 0 {
		t.Fatal("the small world has no std_paths rows")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		got := reinferStandardPaths(t, g)
		if !bytes.Equal(reldb.EncodeTable(got.Table("std_paths")), want) {
			t.Errorf("GOMAXPROCS=%d: std_paths rows differ from the build's", procs)
		}
	}
}

// BenchmarkInferStandardPaths times the right-of-way routing stage on the
// small world; run it with -cpu 1,2 to see its serial and parallel cost.
func BenchmarkInferStandardPaths(b *testing.B) {
	_, g := testDB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reinferStandardPaths(b, g)
	}
}
