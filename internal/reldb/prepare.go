package reldb

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// ErrStmtClosed is returned by Query on a statement whose plan has been
// released with Close.
var ErrStmtClosed = errors.New("reldb: statement is closed")

// ErrNotSelect is returned by Prepare (and wrapped by Classify callers) when
// a statement parses correctly but is not a read-only SELECT. Servers use it
// to distinguish "forbidden statement type" from "malformed SQL".
var ErrNotSelect = errors.New("reldb: statement is not a SELECT")

// Stmt is a prepared SELECT: the SQL text is lexed and parsed exactly once,
// then the statement can be executed any number of times (concurrently)
// without re-parsing. Statements are bound to the DB that prepared them.
//
// Each Query plans the parsed statement against the table contents current
// at that call and runs the fresh plan tree; a Stmt is a cached parse, not
// a snapshot.
type Stmt struct {
	db      *DB
	sel     *SelectStmt
	explain *ExplainStmt // non-nil when the statement is EXPLAIN [ANALYZE]
	sql     string
	closed  atomic.Bool
}

// Prepare parses a read-only statement once and returns a reusable plan.
// SELECT and EXPLAIN [ANALYZE] are accepted (plain EXPLAIN of any statement
// is read-only planning; EXPLAIN ANALYZE requires a SELECT since execution
// happens under a shared lock). Any other statement type returns
// ErrNotSelect; malformed SQL returns the parse error. Safe for concurrent
// use, like all DB methods.
func (db *DB) Prepare(sql string) (*Stmt, error) {
	st, err := ParseStatement(sql)
	if err != nil {
		return nil, err
	}
	switch s := st.(type) {
	case *SelectStmt:
		return &Stmt{db: db, sel: s, sql: sql}, nil
	case *ExplainStmt:
		if s.Analyze {
			if _, ok := s.Stmt.(*SelectStmt); !ok {
				return nil, fmt.Errorf("%w (EXPLAIN ANALYZE of %s)", ErrNotSelect, StatementKind(s.Stmt))
			}
		}
		return &Stmt{db: db, explain: s, sql: sql}, nil
	default:
		return nil, fmt.Errorf("%w (got %s)", ErrNotSelect, StatementKind(st))
	}
}

// IsExplain reports whether the prepared statement is an EXPLAIN (with or
// without ANALYZE).
func (s *Stmt) IsExplain() bool { return s.explain != nil }

// IsAnalyze reports whether the prepared statement is an EXPLAIN ANALYZE.
func (s *Stmt) IsAnalyze() bool { return s.explain != nil && s.explain.Analyze }

// Explain runs the prepared EXPLAIN and returns the structured plan tree
// (freshly planned — and for ANALYZE freshly executed — per call, so
// timings and row counts reflect the current table contents). Returns
// ErrNotSelect when the statement is not an EXPLAIN.
func (s *Stmt) Explain() (*PlanNode, error) {
	if s.closed.Load() {
		return nil, ErrStmtClosed
	}
	if s.explain == nil {
		return nil, fmt.Errorf("%w (statement is not EXPLAIN)", ErrNotSelect)
	}
	s.db.mu.RLock()
	defer s.db.mu.RUnlock()
	return s.db.explainLocked(s.explain)
}

// Query executes the prepared statement against the current table
// contents. The parsed statement is shared and never mutated; each call
// plans and runs its own tree, so concurrent Query calls on one Stmt are
// safe. EXPLAIN statements yield the plan tree as single-column text rows.
//
// perf: hot path — every SQL request the server takes executes here;
// alloclint proves the executor pipeline under it allocation-disciplined.
func (s *Stmt) Query() (*Rows, error) {
	if s.closed.Load() {
		return nil, ErrStmtClosed
	}
	s.db.mu.RLock()
	defer s.db.mu.RUnlock()
	if s.explain != nil {
		plan, err := s.db.explainLocked(s.explain)
		if err != nil {
			return nil, err
		}
		return plan.Rows(), nil
	}
	_, rows, err := s.db.execSelect(s.sel)
	return rows, err
}

// Close releases the prepared plan. Further Query calls return
// ErrStmtClosed; Close is idempotent and safe for concurrent use. Plans
// hold parsed AST memory, so long-lived servers that prepare per-request
// (rather than through a plan cache) must close what they prepare.
func (s *Stmt) Close() error {
	s.closed.Store(true)
	return nil
}

// SQL returns the statement text the plan was prepared from.
func (s *Stmt) SQL() string { return s.sql }

// StatementKind names a parsed statement's type ("SELECT", "INSERT", ...),
// for error messages and statement-type gating.
func StatementKind(st Statement) string {
	switch st.(type) {
	case *SelectStmt:
		return "SELECT"
	case *InsertStmt:
		return "INSERT"
	case *UpdateStmt:
		return "UPDATE"
	case *DeleteStmt:
		return "DELETE"
	case *CreateTableStmt:
		return "CREATE TABLE"
	case *CreateIndexStmt:
		return "CREATE INDEX"
	case *DropTableStmt:
		return "DROP TABLE"
	case *ExplainStmt:
		return "EXPLAIN"
	default:
		return fmt.Sprintf("%T", st)
	}
}
