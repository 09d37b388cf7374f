package bufferdb

import (
	"context"

	"bufferdb/internal/sql"
)

// Stmt is a prepared statement: a lexed statement with its options fixed.
// Prepare checks that it plans; each execution then takes the ad hoc path,
// whose plan cache binds the shape's template (DESIGN.md §21), so a Stmt
// holds no plan of its own.
//
// A Stmt is safe for concurrent use.
type Stmt struct {
	db    *DB
	query string
	shape *sql.Shape
	opts  []QueryOption
}

// Prepare plans the statement as Query does, so one that cannot be planned
// fails now, and leaves its plan template in the plan cache for the
// executions to bind. Options fixed at Prepare time (timeout, memory
// budget, …) apply to every execution.
func (db *DB) Prepare(query string, opts ...QueryOption) (*Stmt, error) {
	shape, err := sql.Lex(query)
	if err != nil {
		return nil, err
	}
	if _, err := db.plan(shape); err != nil {
		return nil, err
	}
	return &Stmt{db: db, query: query, shape: shape, opts: append([]QueryOption(nil), opts...)}, nil
}

// Text returns the prepared statement's SQL.
func (s *Stmt) Text() string { return s.query }

// Query executes the prepared statement and returns the materialized
// result.
func (s *Stmt) Query(ctx context.Context) (*Result, error) {
	return collect(s.QueryStream(ctx))
}

// QueryStream executes the prepared statement and returns a streaming
// cursor.
func (s *Stmt) QueryStream(ctx context.Context) (*Rows, error) {
	return s.db.QueryShape(ctx, s.shape, s.opts...)
}
