package reldb

import (
	"fmt"
	"sort"
	"strings"
)

// Operator names used in plan trees. They double as the machine-readable
// "op" field of the JSON rendering, so they are stable identifiers.
const (
	OpScan     = "scan"
	OpValues   = "values"
	OpHashJoin = "hash_join"
	OpLoopJoin = "nested_loop_join"
	OpFilter   = "filter"
	OpGroup    = "group"
	OpProject  = "project"
	OpDistinct = "distinct"
	OpSort     = "sort"
	OpLimit    = "limit"
)

// OpStats holds the runtime measurements EXPLAIN ANALYZE attaches to one
// operator: rows flowing in and out, how many times the operator ran, and
// wall time spent inside it.
type OpStats struct {
	RowsIn  int     `json:"rows_in"`
	RowsOut int     `json:"rows_out"`
	Loops   int     `json:"loops"`
	TimeMs  float64 `json:"time_ms"`
}

// PlanNode is one operator in a query plan tree. A SELECT's tree is the
// one that runs: plain EXPLAIN returns it unexecuted (Actual nil), and
// every execution fills Actual on each operator, which EXPLAIN ANALYZE
// returns.
type PlanNode struct {
	Op       string      `json:"op"`
	Table    string      `json:"table,omitempty"`
	Detail   string      `json:"detail,omitempty"`
	Index    string      `json:"index,omitempty"`
	EstRows  int         `json:"est_rows,omitempty"`
	Children []*PlanNode `json:"children,omitempty"`
	Actual   *OpStats    `json:"actual,omitempty"`

	op operator // nil on the DDL/DML plans EXPLAIN only describes
}

// Text renders the plan tree as indented lines, root first.
func (n *PlanNode) Text() []string {
	var out []string
	n.appendText(&out, 0)
	return out
}

// Rows renders the plan tree as a single-column result set, so EXPLAIN
// output flows through every surface that already speaks *Rows (the SQL
// HTTP endpoint, igdb sql, the codec).
//
// perf: allocates intentionally — rendering builds the retained result
// set; one row and one text line per plan node.
func (n *PlanNode) Rows() *Rows {
	lines := n.Text()
	out := &Rows{Columns: []string{"plan"}}
	out.Rows = make([][]Value, len(lines))
	for i, l := range lines {
		out.Rows[i] = []Value{Text(l)}
	}
	return out
}

func (n *PlanNode) appendText(out *[]string, depth int) {
	var b strings.Builder
	b.WriteString(strings.Repeat("  ", depth))
	if depth > 0 {
		b.WriteString("-> ")
	}
	b.WriteString(n.Op)
	if n.Table != "" {
		b.WriteByte(' ')
		b.WriteString(n.Table)
	}
	if n.Detail != "" {
		b.WriteString(" (")
		b.WriteString(n.Detail)
		b.WriteByte(')')
	}
	if n.EstRows > 0 || n.Op == OpScan {
		fmt.Fprintf(&b, " rows=%d", n.EstRows)
	}
	if n.Index != "" {
		b.WriteString(" [")
		b.WriteString(n.Index)
		b.WriteByte(']')
	}
	if n.Actual != nil {
		fmt.Fprintf(&b, " (actual: in=%d out=%d loops=%d time=%.3fms)",
			n.Actual.RowsIn, n.Actual.RowsOut, n.Actual.Loops, n.Actual.TimeMs)
	}
	*out = append(*out, b.String())
	for _, c := range n.Children {
		c.appendText(out, depth+1)
	}
}

// Walk visits the node and all descendants in depth-first pre-order.
func (n *PlanNode) Walk(fn func(*PlanNode, int)) { n.walk(fn, 0) }

func (n *PlanNode) walk(fn func(*PlanNode, int), depth int) {
	fn(n, depth)
	for _, c := range n.Children {
		c.walk(fn, depth+1)
	}
}

// planSelect makes every decision for a SELECT — the tables it reads, the
// joined row layout, star expansion, grouped or not, and hash versus
// nested-loop join through equiJoinPair — and returns the operator tree
// that both EXPLAIN prints and execSelect runs, plus the output column
// names. The caller must hold db.mu (shared is enough).
//
// perf: allocates intentionally — planning builds a fresh tree of a few
// nodes per statement; the per-row work happens in the operators.
func (db *DB) planSelect(s *SelectStmt) (*PlanNode, []string, error) {
	sch := newSchema()
	var cur *PlanNode
	if s.From == nil {
		cur = &PlanNode{Op: OpValues, Detail: "one synthetic row", EstRows: 1, op: scanOp{}}
	} else {
		base, err := db.tableLocked(s.From.Name)
		if err != nil {
			return nil, nil, err
		}
		cur = scanNode(s.From.label(), base)
		sch.addTable(s.From.label(), base)
		for _, j := range s.Joins {
			jt, err := db.tableLocked(j.Table.Name)
			if err != nil {
				return nil, nil, err
			}
			joined := &schema{
				labels: append([]string{}, sch.labels...),
				names:  append([]string{}, sch.names...),
			}
			joined.addTable(j.Table.label(), jt)
			right := scanNode(j.Table.label(), jt)
			op := &joinOp{on: j.On, outer: j.Left, left: sch, sch: joined, right: right}
			op.lKey, op.rKey = equiJoinPair(j.On, sch, joined, j.Table.label(), jt)
			kind := "inner"
			if j.Left {
				kind = "left"
			}
			jn := &PlanNode{Op: OpLoopJoin, Detail: kind + " join on " + ExprString(j.On), op: op,
				Children: []*PlanNode{cur, right}}
			if op.lKey != nil {
				jn.Op = OpHashJoin
				jn.Index = "hash(" + ExprString(op.rKey) + ")"
			}
			cur, sch = jn, joined
		}
	}

	if s.Where != nil {
		cur = &PlanNode{Op: OpFilter, Detail: ExprString(s.Where), Children: []*PlanNode{cur},
			op: &filterOp{pred: s.Where, sch: sch}}
	}

	items, err := expandStars(s.Items, sch)
	if err != nil {
		return nil, nil, err
	}
	out := &outputOp{by: s.GroupBy, having: s.Having, sch: sch,
		grouped: len(s.GroupBy) > 0 || s.Having != nil || anyAggregate(items) ||
			(len(s.OrderBy) > 0 && anyAggregateOrder(s.OrderBy))}
	var names []string
	for _, it := range items {
		names = append(names, itemName(it))
		out.exprs = append(out.exprs, it.Expr)
	}
	for _, ob := range s.OrderBy {
		out.exprs = append(out.exprs, orderKey(ob.Expr, items))
	}
	if out.grouped {
		detail := "by: all rows"
		if len(s.GroupBy) > 0 {
			detail = "by: " + exprListString(s.GroupBy)
		}
		if s.Having != nil {
			detail += "; having: " + ExprString(s.Having)
		}
		detail += "; emit: " + strings.Join(names, ", ")
		cur = &PlanNode{Op: OpGroup, Detail: detail, Children: []*PlanNode{cur}, op: out}
	} else {
		cur = &PlanNode{Op: OpProject, Detail: strings.Join(names, ", "), Children: []*PlanNode{cur}, op: out}
	}

	if s.Distinct {
		cur = &PlanNode{Op: OpDistinct, Children: []*PlanNode{cur}, op: distinctOp{width: len(items)}}
	}
	if len(s.OrderBy) > 0 {
		var keys []string
		for _, ob := range s.OrderBy {
			k := ExprString(ob.Expr)
			if ob.Desc {
				k += " desc"
			}
			keys = append(keys, k)
		}
		cur = &PlanNode{Op: OpSort, Detail: "keys: " + strings.Join(keys, ", "), Children: []*PlanNode{cur},
			op: sortOp{order: s.OrderBy, width: len(items)}}
	}
	if s.Limit >= 0 || s.Offset > 0 {
		detail := ""
		if s.Limit >= 0 {
			detail = fmt.Sprintf("limit %d", s.Limit)
		}
		if s.Offset > 0 {
			if detail != "" {
				detail += " "
			}
			detail += fmt.Sprintf("offset %d", s.Offset)
		}
		cur = &PlanNode{Op: OpLimit, Detail: detail, Children: []*PlanNode{cur},
			op: limitOp{limit: s.Limit, offset: s.Offset}}
	}
	return cur, names, nil
}

// tableLocked looks up a table by name. The caller must hold db.mu.
func (db *DB) tableLocked(name string) (*Table, error) {
	//lint:ignore guardedby callers hold db.mu
	t, ok := db.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("reldb: no such table %q", name)
	}
	return t, nil
}

// scanNode describes a full scan of one table. It lists the table's hash
// indexes for reference only: SELECT reads no index today, and a hash join
// reports the transient hash table it builds on its own node.
func scanNode(label string, t *Table) *PlanNode {
	n := &PlanNode{Op: OpScan, Table: t.Name, EstRows: len(t.Rows), op: scanOp{t: t}}
	if !strings.EqualFold(label, t.Name) {
		n.Detail = "as " + label
	}
	if len(t.indexes) > 0 {
		var cols []string
		for col := range t.indexes {
			cols = append(cols, "hash("+strings.ToLower(t.Cols[col].Name)+")")
		}
		sort.Strings(cols)
		n.Index = strings.Join(cols, ", ")
	}
	return n
}

// explainLocked plans ex.Stmt and, for EXPLAIN ANALYZE of a SELECT, runs
// the plan, so the returned tree carries its own actuals. Callers hold
// db.mu for reading — ANALYZE therefore only supports read-only statements.
//
// perf: allocates intentionally — planning builds a fresh plan tree per
// EXPLAIN; it is the diagnostic path, not the per-row execution path.
func (db *DB) explainLocked(ex *ExplainStmt) (*PlanNode, error) {
	switch inner := ex.Stmt.(type) {
	case *SelectStmt:
		if ex.Analyze {
			plan, _, err := db.execSelect(inner)
			return plan, err
		}
		plan, _, err := db.planSelect(inner)
		return plan, err
	default:
		if ex.Analyze {
			return nil, fmt.Errorf("reldb: EXPLAIN ANALYZE supports only SELECT (got %s)", StatementKind(ex.Stmt))
		}
		return staticPlan(ex.Stmt), nil
	}
}

// staticPlan builds the single-node plans EXPLAIN reports for DDL/DML.
func staticPlan(st Statement) *PlanNode {
	switch s := st.(type) {
	case *InsertStmt:
		return &PlanNode{Op: "insert", Table: s.Table, Detail: fmt.Sprintf("%d row(s)", len(s.Rows))}
	case *DeleteStmt:
		n := &PlanNode{Op: "delete", Table: s.Table}
		if s.Where != nil {
			n.Detail = ExprString(s.Where)
		}
		return n
	case *UpdateStmt:
		var cols []string
		for _, set := range s.Sets {
			cols = append(cols, strings.ToLower(set.Column))
		}
		n := &PlanNode{Op: "update", Table: s.Table, Detail: "set: " + strings.Join(cols, ", ")}
		if s.Where != nil {
			n.Detail += "; where: " + ExprString(s.Where)
		}
		return n
	case *CreateTableStmt:
		return &PlanNode{Op: "create_table", Table: s.Name, Detail: fmt.Sprintf("%d column(s)", len(s.Cols))}
	case *CreateIndexStmt:
		return &PlanNode{Op: "create_index", Table: s.Table, Index: "hash(" + strings.ToLower(s.Column) + ")"}
	case *DropTableStmt:
		return &PlanNode{Op: "drop_table", Table: s.Name}
	default:
		return &PlanNode{Op: strings.ToLower(StatementKind(st))}
	}
}

// ExprString renders an expression for plan annotations. The output is for
// humans reading plans, not for re-parsing.
func ExprString(e Expr) string {
	switch n := e.(type) {
	case nil:
		return ""
	case *Lit:
		return litString(n.V)
	case *ColRef:
		if n.Table != "" {
			return strings.ToLower(n.Table) + "." + strings.ToLower(n.Name)
		}
		return strings.ToLower(n.Name)
	case *Unary:
		if n.Op == "NOT" {
			return "NOT " + ExprString(n.X)
		}
		return n.Op + ExprString(n.X)
	case *Binary:
		return boolOperand(n.L, n.Op) + " " + n.Op + " " + boolOperand(n.R, n.Op)
	case *InExpr:
		op := " IN ("
		if n.Not {
			op = " NOT IN ("
		}
		return ExprString(n.X) + op + exprListString(n.List) + ")"
	case *IsNullExpr:
		if n.Not {
			return ExprString(n.X) + " IS NOT NULL"
		}
		return ExprString(n.X) + " IS NULL"
	case *BetweenExpr:
		op := " BETWEEN "
		if n.Not {
			op = " NOT BETWEEN "
		}
		return ExprString(n.X) + op + ExprString(n.Lo) + " AND " + ExprString(n.Hi)
	case *Call:
		if n.Star {
			return n.Fn + "(*)"
		}
		args := exprListString(n.Args)
		if n.Distinct {
			args = "DISTINCT " + args
		}
		return n.Fn + "(" + args + ")"
	default:
		return fmt.Sprintf("%T", e)
	}
}

// boolOperand parenthesizes a nested AND/OR of a different operator so the
// rendered precedence matches the tree.
func boolOperand(e Expr, parentOp string) string {
	if b, ok := e.(*Binary); ok && (b.Op == "AND" || b.Op == "OR") && b.Op != parentOp {
		return "(" + ExprString(e) + ")"
	}
	return ExprString(e)
}

func exprListString(list []Expr) string {
	var parts []string
	for _, e := range list {
		parts = append(parts, ExprString(e))
	}
	return strings.Join(parts, ", ")
}

func litString(v Value) string {
	if v.kind == kindText {
		return "'" + strings.ReplaceAll(v.s, "'", "''") + "'"
	}
	return v.String()
}
