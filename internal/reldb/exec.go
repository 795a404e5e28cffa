package reldb

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// schema describes the columns of an intermediate joined row: one entry per
// position, qualified by the table label (alias or name).
type schema struct {
	labels []string // table label per position
	names  []string // lower-cased column name per position
}

func newSchema() *schema { return &schema{} }

// perf: allocates intentionally — schema construction runs once per table
// per query, not per row.
func (s *schema) addTable(label string, t *Table) {
	for _, c := range t.Cols {
		s.labels = append(s.labels, strings.ToLower(label))
		s.names = append(s.names, strings.ToLower(c.Name))
	}
}

// resolve finds the position of a (possibly qualified) column reference.
func (s *schema) resolve(table, name string) (int, error) {
	table = strings.ToLower(table)
	name = strings.ToLower(name)
	found := -1
	for i := range s.names {
		if s.names[i] != name {
			continue
		}
		if table != "" && s.labels[i] != table {
			continue
		}
		if found >= 0 {
			return 0, fmt.Errorf("reldb: ambiguous column %q", name)
		}
		found = i
	}
	if found < 0 {
		if table != "" {
			return 0, fmt.Errorf("reldb: no column %s.%s", table, name)
		}
		return 0, fmt.Errorf("reldb: no column %q", name)
	}
	return found, nil
}

// evalEnv is the evaluation context for one row (or one group).
type evalEnv struct {
	db     *DB
	schema *schema
	row    []Value
	group  [][]Value // non-nil while evaluating aggregate expressions
}

func (e *evalEnv) eval(x Expr) (Value, error) {
	switch n := x.(type) {
	case *Lit:
		return n.V, nil
	case *ColRef:
		if e.schema == nil {
			return Null, fmt.Errorf("reldb: column %q referenced outside a row context", n.Name)
		}
		pos, err := e.schema.resolve(n.Table, n.Name)
		if err != nil {
			return Null, err
		}
		return e.row[pos], nil
	case *Unary:
		return e.evalUnary(n)
	case *Binary:
		return e.evalBinary(n)
	case *InExpr:
		return e.evalIn(n)
	case *IsNullExpr:
		v, err := e.eval(n.X)
		if err != nil {
			return Null, err
		}
		res := v.IsNull()
		if n.Not {
			res = !res
		}
		return Bool(res), nil
	case *BetweenExpr:
		v, err := e.eval(n.X)
		if err != nil {
			return Null, err
		}
		lo, err := e.eval(n.Lo)
		if err != nil {
			return Null, err
		}
		hi, err := e.eval(n.Hi)
		if err != nil {
			return Null, err
		}
		if v.IsNull() || lo.IsNull() || hi.IsNull() {
			return Null, nil
		}
		in := Compare(v, lo) >= 0 && Compare(v, hi) <= 0
		if n.Not {
			in = !in
		}
		return Bool(in), nil
	case *Call:
		if aggregateFns[n.Fn] {
			return e.evalAggregate(n)
		}
		return e.evalScalarCall(n)
	default:
		return Null, fmt.Errorf("reldb: cannot evaluate %T", x)
	}
}

func (e *evalEnv) evalUnary(n *Unary) (Value, error) {
	v, err := e.eval(n.X)
	if err != nil {
		return Null, err
	}
	switch n.Op {
	case "NOT":
		if v.IsNull() {
			return Null, nil
		}
		b, _ := v.AsBool()
		return Bool(!b), nil
	case "-":
		if v.IsNull() {
			return Null, nil
		}
		if v.kind == kindInt {
			return Int(-v.i), nil
		}
		if f, ok := v.AsFloat(); ok {
			return Float(-f), nil
		}
		return Null, fmt.Errorf("reldb: cannot negate %s", v)
	default:
		return Null, fmt.Errorf("reldb: unknown unary op %q", n.Op)
	}
}

func (e *evalEnv) evalBinary(n *Binary) (Value, error) {
	// AND/OR get three-valued logic with short-circuiting.
	if n.Op == "AND" || n.Op == "OR" {
		l, err := e.eval(n.L)
		if err != nil {
			return Null, err
		}
		lb, lok := l.AsBool()
		if n.Op == "AND" && lok && !lb {
			return Bool(false), nil
		}
		if n.Op == "OR" && lok && lb {
			return Bool(true), nil
		}
		r, err := e.eval(n.R)
		if err != nil {
			return Null, err
		}
		rb, rok := r.AsBool()
		if n.Op == "AND" {
			if lok && rok {
				return Bool(lb && rb), nil
			}
			if (lok && !lb) || (rok && !rb) {
				return Bool(false), nil
			}
			return Null, nil
		}
		if lok && rok {
			return Bool(lb || rb), nil
		}
		if (lok && lb) || (rok && rb) {
			return Bool(true), nil
		}
		return Null, nil
	}

	l, err := e.eval(n.L)
	if err != nil {
		return Null, err
	}
	r, err := e.eval(n.R)
	if err != nil {
		return Null, err
	}
	switch n.Op {
	case "=", "!=", "<", "<=", ">", ">=":
		if l.IsNull() || r.IsNull() {
			return Null, nil
		}
		c := Compare(l, r)
		var res bool
		switch n.Op {
		case "=":
			res = c == 0
		case "!=":
			res = c != 0
		case "<":
			res = c < 0
		case "<=":
			res = c <= 0
		case ">":
			res = c > 0
		case ">=":
			res = c >= 0
		}
		return Bool(res), nil
	case "LIKE":
		if l.IsNull() || r.IsNull() {
			return Null, nil
		}
		ls, _ := l.AsText()
		rs, _ := r.AsText()
		return Bool(like(ls, rs)), nil
	case "||":
		if l.IsNull() || r.IsNull() {
			return Null, nil
		}
		ls, _ := l.AsText()
		rs, _ := r.AsText()
		return Text(ls + rs), nil
	case "+", "-", "*", "/":
		if l.IsNull() || r.IsNull() {
			return Null, nil
		}
		// Integer arithmetic when both sides are ints (except /0 guard).
		if l.kind == kindInt && r.kind == kindInt {
			switch n.Op {
			case "+":
				return Int(l.i + r.i), nil
			case "-":
				return Int(l.i - r.i), nil
			case "*":
				return Int(l.i * r.i), nil
			case "/":
				if r.i == 0 {
					return Null, nil
				}
				return Int(l.i / r.i), nil
			}
		}
		lf, lok := l.AsFloat()
		rf, rok := r.AsFloat()
		if !lok || !rok {
			return Null, fmt.Errorf("reldb: non-numeric operand for %q", n.Op)
		}
		switch n.Op {
		case "+":
			return Float(lf + rf), nil
		case "-":
			return Float(lf - rf), nil
		case "*":
			return Float(lf * rf), nil
		default:
			if rf == 0 {
				return Null, nil
			}
			return Float(lf / rf), nil
		}
	default:
		return Null, fmt.Errorf("reldb: unknown operator %q", n.Op)
	}
}

func (e *evalEnv) evalIn(n *InExpr) (Value, error) {
	v, err := e.eval(n.X)
	if err != nil {
		return Null, err
	}
	if v.IsNull() {
		return Null, nil
	}
	sawNull := false
	for _, le := range n.List {
		lv, err := e.eval(le)
		if err != nil {
			return Null, err
		}
		if lv.IsNull() {
			sawNull = true
			continue
		}
		if Compare(v, lv) == 0 {
			return Bool(!n.Not), nil
		}
	}
	if sawNull {
		return Null, nil
	}
	return Bool(n.Not), nil
}

func (e *evalEnv) evalScalarCall(n *Call) (Value, error) {
	fn, ok := e.db.funcs[n.Fn]
	if !ok {
		return Null, fmt.Errorf("reldb: unknown function %q", n.Fn)
	}
	args := make([]Value, len(n.Args))
	for i, a := range n.Args {
		v, err := e.eval(a)
		if err != nil {
			return Null, err
		}
		args[i] = v
	}
	return fn(args)
}

// evalAggregate computes an aggregate over e.group.
func (e *evalEnv) evalAggregate(n *Call) (Value, error) {
	if e.group == nil {
		return Null, fmt.Errorf("reldb: aggregate %s outside grouped context", n.Fn)
	}
	if n.Star {
		if n.Fn != "COUNT" {
			return Null, fmt.Errorf("reldb: %s(*) is not valid", n.Fn)
		}
		return Int(int64(len(e.group))), nil
	}
	if len(n.Args) != 1 {
		return Null, fmt.Errorf("reldb: %s takes one argument", n.Fn)
	}
	// Evaluate the argument per group row. One env is reused across the
	// group and the DISTINCT set is only allocated when needed: this loop
	// runs once per aggregate per group, so per-iteration allocations here
	// dominate grouped-query cost.
	vals := make([]Value, 0, len(e.group))
	var seen map[string]bool
	var kbuf []byte
	sub := evalEnv{db: e.db, schema: e.schema}
	for _, row := range e.group {
		sub.row = row
		v, err := sub.eval(n.Args[0])
		if err != nil {
			return Null, err
		}
		if v.IsNull() {
			continue
		}
		if n.Distinct {
			if seen == nil {
				//lint:ignore alloclint the DISTINCT set is allocated at most once per aggregate call (guarded by seen == nil), not per row
				seen = make(map[string]bool, len(e.group))
			}
			kbuf = v.appendKey(kbuf[:0])
			if seen[string(kbuf)] {
				continue
			}
			seen[string(kbuf)] = true
		}
		vals = append(vals, v)
	}
	switch n.Fn {
	case "COUNT":
		return Int(int64(len(vals))), nil
	case "SUM", "AVG":
		if len(vals) == 0 {
			return Null, nil
		}
		var sum float64
		allInt := true
		for _, v := range vals {
			f, ok := v.AsFloat()
			if !ok {
				return Null, fmt.Errorf("reldb: %s over non-numeric value %s", n.Fn, v)
			}
			if v.kind != kindInt {
				allInt = false
			}
			sum += f
		}
		if n.Fn == "AVG" {
			return Float(sum / float64(len(vals))), nil
		}
		if allInt && sum == math.Trunc(sum) {
			return Int(int64(sum)), nil
		}
		return Float(sum), nil
	case "MIN", "MAX":
		if len(vals) == 0 {
			return Null, nil
		}
		best := vals[0]
		for _, v := range vals[1:] {
			c := Compare(v, best)
			if (n.Fn == "MIN" && c < 0) || (n.Fn == "MAX" && c > 0) {
				best = v
			}
		}
		return best, nil
	default:
		return Null, fmt.Errorf("reldb: unknown aggregate %q", n.Fn)
	}
}

// ---- SELECT execution ----

// execSelect plans s and runs the plan: the one SELECT execution path
// behind Query, Stmt.Query and EXPLAIN ANALYZE. It returns the executed
// tree, whose every operator carries its actuals, and the result. Callers
// hold db.mu for reading.
func (db *DB) execSelect(s *SelectStmt) (*PlanNode, *Rows, error) {
	plan, cols, err := db.planSelect(s)
	if err != nil {
		return nil, nil, err
	}
	// Every operator reports actuals, zero if it never ran (the inner scan
	// of a nested loop over no left rows).
	plan.Walk(func(n *PlanNode, _ int) { n.Actual = &OpStats{} })
	rows, err := plan.run(db)
	if err != nil {
		return nil, nil, err
	}
	return plan, &Rows{Columns: cols, Rows: rows}, nil
}

// operator is the executable half of a SELECT plan node. exec receives
// the node's first child's output (nil for a scan) and returns the node's
// own. Operators never write into a table's rows; a materialized input
// that is not a table's (project or group output) belongs to its consumer.
type operator interface {
	exec(db *DB, in [][]Value) ([][]Value, error)
}

// run executes n's operator over its first child's output and adds the
// activation to n's actuals. A join runs its right child itself: once for
// a hash join, once per left row for a nested loop.
func (n *PlanNode) run(db *DB) ([][]Value, error) {
	var in [][]Value
	if len(n.Children) > 0 {
		var err error
		if in, err = n.Children[0].run(db); err != nil {
			return nil, err
		}
	}
	t0 := time.Now()
	out, err := n.op.exec(db, in)
	if err != nil {
		return nil, err
	}
	st := n.Actual
	st.RowsIn += len(in)
	if len(n.Children) == 0 {
		st.RowsIn += len(out) // a scan's input is the rows it reads
	}
	st.RowsOut += len(out)
	st.Loops++
	st.TimeMs += float64(time.Since(t0)) / float64(time.Millisecond)
	return out, nil
}

// scanOp reads a table's rows in place, or yields one empty row for a
// FROM-less SELECT.
type scanOp struct{ t *Table }

func (op scanOp) exec(*DB, [][]Value) ([][]Value, error) {
	if op.t == nil {
		return [][]Value{nil}, nil
	}
	return op.t.Rows, nil
}

// joinOp combines its left input with the rows of its right scan. With an
// equi-join key pair it hashes the right side once and probes it per left
// row; otherwise it re-runs the right scan for every left row.
type joinOp struct {
	on, lKey, rKey Expr
	outer          bool      // LEFT JOIN: keep unmatched left rows, NULL-padded
	left, sch      *schema   // row layout before and after the join
	right          *PlanNode // the right-side scan, the join node's second child
}

func (op *joinOp) exec(db *DB, left [][]Value) ([][]Value, error) {
	leftWidth := len(op.left.names)
	rightWidth := len(op.sch.names) - leftWidth
	// perf: allocates intentionally — each combined row it builds is a
	// retained output row; there is nothing to hoist.
	combine := func(l []Value, r []Value) []Value {
		row := make([]Value, 0, leftWidth+rightWidth)
		row = append(row, l...)
		row = append(row, r...)
		return row
	}
	nullRight := make([]Value, rightWidth)

	var idx map[string][][]Value
	var kbuf []byte
	if op.lKey != nil {
		right, err := op.right.run(db)
		if err != nil {
			return nil, err
		}
		// Hash the right side. The build key is evaluated against one
		// reusable padded row rather than a fresh combine per right row.
		idx = make(map[string][][]Value, len(right))
		pad := make([]Value, leftWidth+rightWidth)
		envR := evalEnv{db: db, schema: op.sch, row: pad}
		for _, rrow := range right {
			copy(pad[leftWidth:], rrow)
			v, err := envR.eval(op.rKey)
			if err != nil {
				return nil, err
			}
			if v.IsNull() {
				continue
			}
			kbuf = v.appendKey(kbuf[:0])
			k := string(kbuf) // retained as the bucket key
			idx[k] = append(idx[k], rrow)
		}
	}

	var out [][]Value
	envL := evalEnv{db: db, schema: op.left}
	env := evalEnv{db: db, schema: op.sch}
	for _, lrow := range left {
		var candidates [][]Value
		if op.lKey != nil {
			envL.row = lrow
			lv, err := envL.eval(op.lKey)
			if err != nil {
				return nil, err
			}
			if !lv.IsNull() {
				// Allocation-free probe: reused key buffer, m[string(buf)].
				kbuf = lv.appendKey(kbuf[:0])
				candidates = idx[string(kbuf)]
			}
		} else {
			var err error
			if candidates, err = op.right.run(db); err != nil {
				return nil, err
			}
		}
		matched := false
		for _, rrow := range candidates {
			full := combine(lrow, rrow)
			env.row = full
			v, err := env.eval(op.on)
			if err != nil {
				return nil, err
			}
			if b, ok := v.AsBool(); ok && b {
				out = append(out, full)
				matched = true
			}
		}
		if !matched && op.outer {
			out = append(out, combine(lrow, nullRight))
		}
	}
	return out, nil
}

// filterOp keeps the rows the WHERE predicate holds for.
type filterOp struct {
	pred Expr
	sch  *schema
}

func (op *filterOp) exec(db *DB, rows [][]Value) ([][]Value, error) {
	if hasAggregate(op.pred) {
		return nil, fmt.Errorf("reldb: aggregates are not allowed in WHERE")
	}
	filtered := rows[:0:0]
	env := evalEnv{db: db, schema: op.sch}
	for _, row := range rows {
		env.row = row
		v, err := env.eval(op.pred)
		if err != nil {
			return nil, err
		}
		if b, ok := v.AsBool(); ok && b {
			filtered = append(filtered, row)
		}
	}
	return filtered, nil
}

// outputOp evaluates the select list per row (project) or per group
// (group). Each output row carries the ORDER BY keys after the select
// items; sortOp orders by them and trims them off.
type outputOp struct {
	exprs   []Expr // select items, then ORDER BY keys
	by      []Expr
	having  Expr
	grouped bool
	sch     *schema
}

func (op *outputOp) exec(db *DB, rows [][]Value) ([][]Value, error) {
	env := evalEnv{db: db, schema: op.sch}
	if !op.grouped {
		sink := newRowSink(len(rows), len(op.exprs))
		for _, row := range rows {
			env.row = row
			if err := sink.emit(&env, op.exprs); err != nil {
				return nil, err
			}
		}
		return sink.rows, nil
	}
	groups, err := groupRows(db, op.sch, rows, op.by)
	if err != nil {
		return nil, err
	}
	sink := newRowSink(len(groups), len(op.exprs))
	for _, g := range groups {
		env.row, env.group = g.first, g.rows
		if op.having != nil {
			v, err := env.eval(op.having)
			if err != nil {
				return nil, err
			}
			if b, ok := v.AsBool(); !ok || !b {
				continue
			}
		}
		if err := sink.emit(&env, op.exprs); err != nil {
			return nil, err
		}
	}
	return sink.rows, nil
}

// rowSink packs up to n emitted rows into one flat backing array: each row
// is a full-capacity slice of it, so emitting allocates nothing per row.
type rowSink struct {
	rows [][]Value
	flat []Value
}

func newRowSink(n, width int) rowSink {
	return rowSink{rows: make([][]Value, 0, n), flat: make([]Value, 0, n*width)}
}

func (s *rowSink) emit(env *evalEnv, exprs []Expr) error {
	start := len(s.flat)
	for _, e := range exprs {
		v, err := env.eval(e)
		if err != nil {
			return err
		}
		s.flat = append(s.flat, v)
	}
	s.rows = append(s.rows, s.flat[start:len(s.flat):len(s.flat)])
	return nil
}

// orderKey resolves an ORDER BY expression that names a select alias or a
// 1-based ordinal to the select item's expression.
func orderKey(e Expr, items []SelectItem) Expr {
	if c, ok := e.(*ColRef); ok && c.Table == "" {
		for _, it := range items {
			if strings.EqualFold(it.Alias, c.Name) {
				return it.Expr
			}
		}
	}
	if l, ok := e.(*Lit); ok {
		if n, ok2 := l.V.AsInt(); ok2 && n >= 1 && int(n) <= len(items) {
			return items[n-1].Expr
		}
	}
	return e
}

// distinctOp keeps the first row of each distinct select-item tuple.
type distinctOp struct{ width int }

func (op distinctOp) exec(_ *DB, rows [][]Value) ([][]Value, error) {
	seen := make(map[string]bool, len(rows))
	dedup := rows[:0:0]
	var buf []byte
	for _, r := range rows {
		buf = buf[:0]
		for _, v := range r[:op.width] {
			buf = v.appendKey(buf)
			buf = append(buf, '\x01')
		}
		// The m[string(buf)] lookup is allocation-free; only newly seen
		// rows pay for a retained key string.
		if !seen[string(buf)] {
			seen[string(buf)] = true
			dedup = append(dedup, r)
		}
	}
	return dedup, nil
}

// sortOp orders rows by the keys outputOp appended after the select items
// (stable, so ties keep input order), then trims the keys off.
type sortOp struct {
	order []OrderItem
	width int
}

func (op sortOp) exec(_ *DB, rows [][]Value) ([][]Value, error) {
	sort.SliceStable(rows, func(i, j int) bool {
		for k, ob := range op.order {
			c := Compare(rows[i][op.width+k], rows[j][op.width+k])
			if c == 0 {
				continue
			}
			if ob.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	for i, r := range rows {
		rows[i] = r[:op.width:op.width]
	}
	return rows, nil
}

// limitOp applies OFFSET, then LIMIT (negative: none).
type limitOp struct{ limit, offset int }

func (op limitOp) exec(_ *DB, rows [][]Value) ([][]Value, error) {
	rows = rows[min(op.offset, len(rows)):]
	if op.limit >= 0 {
		rows = rows[:min(op.limit, len(rows))]
	}
	return rows, nil
}

type group struct {
	first []Value
	rows  [][]Value
}

func groupRows(db *DB, sch *schema, rows [][]Value, by []Expr) ([]group, error) {
	if len(by) == 0 {
		// Single group over everything; present even when empty so COUNT(*)
		// returns 0. Its rows stay non-nil, since nil marks "not grouped".
		if rows == nil {
			rows = [][]Value{}
		}
		return []group{{first: nil, rows: rows}}, nil
	}
	// Groups are kept in a slice in first-seen order; the map only carries
	// key -> index, so the per-row lookup path is allocation-free (one
	// reused key buffer, m[string(buf)] indexing) and only new groups pay
	// for a retained key string.
	idx := make(map[string]int, 16)
	var out []group
	env := evalEnv{db: db, schema: sch}
	var buf []byte
	for _, row := range rows {
		env.row = row
		buf = buf[:0]
		for _, e := range by {
			v, err := env.eval(e)
			if err != nil {
				return nil, err
			}
			buf = v.appendKey(buf)
			buf = append(buf, '\x01')
		}
		gi, ok := idx[string(buf)]
		if !ok {
			gi = len(out)
			idx[string(buf)] = gi
			out = append(out, group{first: row})
		}
		out[gi].rows = append(out[gi].rows, row)
	}
	return out, nil
}

// perf: allocates intentionally — expands the select list once per query,
// not per row.
func expandStars(items []SelectItem, sch *schema) ([]SelectItem, error) {
	var out []SelectItem
	for _, it := range items {
		if !it.Star {
			out = append(out, it)
			continue
		}
		qual := strings.ToLower(it.Table)
		matched := false
		for i := range sch.names {
			if qual != "" && sch.labels[i] != qual {
				continue
			}
			matched = true
			out = append(out, SelectItem{
				Expr:  &ColRef{Table: sch.labels[i], Name: sch.names[i]},
				Alias: sch.names[i],
			})
		}
		if qual != "" && !matched {
			return nil, fmt.Errorf("reldb: no table %q for %s.*", it.Table, it.Table)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("reldb: empty select list")
	}
	return out, nil
}

func itemName(it SelectItem) string {
	if it.Alias != "" {
		return it.Alias
	}
	if c, ok := it.Expr.(*ColRef); ok {
		return c.Name
	}
	if c, ok := it.Expr.(*Call); ok {
		return strings.ToLower(c.Fn)
	}
	return "expr"
}

func anyAggregate(items []SelectItem) bool {
	for _, it := range items {
		if hasAggregate(it.Expr) {
			return true
		}
	}
	return false
}

func anyAggregateOrder(obs []OrderItem) bool {
	for _, ob := range obs {
		if hasAggregate(ob.Expr) {
			return true
		}
	}
	return false
}

// perf: allocates intentionally — ON-clause analysis runs once per JOIN
// clause at plan time, not per row.
//
// equiJoinPair finds `leftCols = rightCols` inside the ON expression (either
// at the top level or as a conjunct of an AND chain) where the left side
// only references existing tables and the right side only references the
// newly joined table. Returns nil, nil when no such pair exists.
func equiJoinPair(on Expr, leftSch, fullSch *schema, rightLabel string, jt *Table) (Expr, Expr) {
	var conjuncts []Expr
	var collect func(e Expr)
	collect = func(e Expr) {
		if b, ok := e.(*Binary); ok && b.Op == "AND" {
			collect(b.L)
			collect(b.R)
			return
		}
		conjuncts = append(conjuncts, e)
	}
	collect(on)
	for _, c := range conjuncts {
		b, ok := c.(*Binary)
		if !ok || b.Op != "=" {
			continue
		}
		lSide := sideOf(b.L, leftSch, rightLabel, jt)
		rSide := sideOf(b.R, leftSch, rightLabel, jt)
		if lSide == sideLeft && rSide == sideRight {
			return b.L, b.R
		}
		if lSide == sideRight && rSide == sideLeft {
			return b.R, b.L
		}
	}
	return nil, nil
}

type joinSide int

const (
	sideNone joinSide = iota
	sideLeft
	sideRight
	sideMixed
)

// sideOf classifies which relation(s) an expression references.
func sideOf(e Expr, leftSch *schema, rightLabel string, jt *Table) joinSide {
	side := sideNone
	add := func(s joinSide) {
		if side == sideNone {
			side = s
		} else if side != s {
			side = sideMixed
		}
	}
	var walk func(Expr)
	walk = func(e Expr) {
		switch n := e.(type) {
		case *ColRef:
			tbl := strings.ToLower(n.Table)
			name := strings.ToLower(n.Name)
			if tbl != "" {
				if tbl == strings.ToLower(rightLabel) {
					add(sideRight)
				} else {
					add(sideLeft)
				}
				return
			}
			// Unqualified: right table wins if it (and only it) has the column.
			inRight := jt.ColumnIndex(name) >= 0
			inLeft := false
			for _, ln := range leftSch.names {
				if ln == name {
					inLeft = true
					break
				}
			}
			switch {
			case inRight && !inLeft:
				add(sideRight)
			case inLeft && !inRight:
				add(sideLeft)
			default:
				add(sideMixed)
			}
		case *Unary:
			walk(n.X)
		case *Binary:
			walk(n.L)
			walk(n.R)
		case *InExpr:
			walk(n.X)
			for _, a := range n.List {
				walk(a)
			}
		case *IsNullExpr:
			walk(n.X)
		case *BetweenExpr:
			walk(n.X)
			walk(n.Lo)
			walk(n.Hi)
		case *Call:
			for _, a := range n.Args {
				walk(a)
			}
		}
	}
	walk(e)
	return side
}

// ---- built-in scalar functions ----

func registerBuiltins(db *DB) {
	db.funcs["UPPER"] = func(args []Value) (Value, error) {
		if err := arity("UPPER", args, 1); err != nil {
			return Null, err
		}
		if args[0].IsNull() {
			return Null, nil
		}
		s, _ := args[0].AsText()
		return Text(strings.ToUpper(s)), nil
	}
	db.funcs["LOWER"] = func(args []Value) (Value, error) {
		if err := arity("LOWER", args, 1); err != nil {
			return Null, err
		}
		if args[0].IsNull() {
			return Null, nil
		}
		s, _ := args[0].AsText()
		return Text(strings.ToLower(s)), nil
	}
	db.funcs["LENGTH"] = func(args []Value) (Value, error) {
		if err := arity("LENGTH", args, 1); err != nil {
			return Null, err
		}
		if args[0].IsNull() {
			return Null, nil
		}
		s, _ := args[0].AsText()
		return Int(int64(len(s))), nil
	}
	db.funcs["SUBSTR"] = func(args []Value) (Value, error) {
		if len(args) != 2 && len(args) != 3 {
			return Null, fmt.Errorf("reldb: SUBSTR takes 2 or 3 arguments")
		}
		if args[0].IsNull() {
			return Null, nil
		}
		s, _ := args[0].AsText()
		start64, ok := args[1].AsInt()
		if !ok {
			return Null, fmt.Errorf("reldb: SUBSTR start must be an integer")
		}
		start := int(start64) - 1 // SQL is 1-based
		if start < 0 {
			start = 0
		}
		if start > len(s) {
			return Text(""), nil
		}
		end := len(s)
		if len(args) == 3 {
			n64, ok := args[2].AsInt()
			if !ok {
				return Null, fmt.Errorf("reldb: SUBSTR length must be an integer")
			}
			if e := start + int(n64); e < end {
				end = e
			}
			if end < start {
				end = start
			}
		}
		return Text(s[start:end]), nil
	}
	db.funcs["ABS"] = func(args []Value) (Value, error) {
		if err := arity("ABS", args, 1); err != nil {
			return Null, err
		}
		if args[0].IsNull() {
			return Null, nil
		}
		if args[0].kind == kindInt {
			if args[0].i < 0 {
				return Int(-args[0].i), nil
			}
			return args[0], nil
		}
		f, ok := args[0].AsFloat()
		if !ok {
			return Null, fmt.Errorf("reldb: ABS of non-number")
		}
		return Float(math.Abs(f)), nil
	}
	db.funcs["ROUND"] = func(args []Value) (Value, error) {
		if len(args) != 1 && len(args) != 2 {
			return Null, fmt.Errorf("reldb: ROUND takes 1 or 2 arguments")
		}
		if args[0].IsNull() {
			return Null, nil
		}
		f, ok := args[0].AsFloat()
		if !ok {
			return Null, fmt.Errorf("reldb: ROUND of non-number")
		}
		digits := int64(0)
		if len(args) == 2 {
			digits, _ = args[1].AsInt()
		}
		scale := math.Pow(10, float64(digits))
		return Float(math.Round(f*scale) / scale), nil
	}
	db.funcs["COALESCE"] = func(args []Value) (Value, error) {
		for _, a := range args {
			if !a.IsNull() {
				return a, nil
			}
		}
		return Null, nil
	}
	db.funcs["IIF"] = func(args []Value) (Value, error) {
		if err := arity("IIF", args, 3); err != nil {
			return Null, err
		}
		if b, ok := args[0].AsBool(); ok && b {
			return args[1], nil
		}
		return args[2], nil
	}
}

func arity(fn string, args []Value, n int) error {
	if len(args) != n {
		return fmt.Errorf("reldb: %s takes %d argument(s), got %d", fn, n, len(args))
	}
	return nil
}
