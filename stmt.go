package bufferdb

import (
	"context"
	"sync"

	"bufferdb/internal/plan"
)

// Stmt is a prepared statement: the statement is parsed, planned and
// refined once, and the resulting physical plan is cached. Each
// execution clones the cached tree (compiled operators hold per-execution
// state, so plans cannot be shared between concurrent runs) — skipping
// the parsing, optimization and refinement that ad hoc queries repeat on
// every call.
//
// A Stmt is safe for concurrent use.
type Stmt struct {
	db    *DB
	query string
	qo    QueryOptions

	mu     sync.Mutex
	cached *plan.Node
}

// Prepare plans the statement as Query does — binding the shape's plan
// template when the plan cache holds one — and keeps the refined plan for
// repeated execution. Options fixed at Prepare time (timeout, memory
// budget, …) apply to every execution.
func (db *DB) Prepare(query string, opts ...QueryOption) (*Stmt, error) {
	p, err := db.plan(query)
	if err != nil {
		return nil, err
	}
	return &Stmt{db: db, query: query, qo: applyOptions(opts), cached: p}, nil
}

// Text returns the prepared statement's SQL.
func (s *Stmt) Text() string { return s.query }

// clonePlan hands out a private copy of the cached plan.
func (s *Stmt) clonePlan() *plan.Node {
	s.mu.Lock()
	defer s.mu.Unlock()
	return plan.Clone(s.cached)
}

// Query executes the prepared statement and returns the materialized
// result.
func (s *Stmt) Query(ctx context.Context) (*Result, error) {
	return collect(s.QueryStream(ctx))
}

// QueryStream executes the prepared statement and returns a streaming
// cursor.
func (s *Stmt) QueryStream(ctx context.Context) (*Rows, error) {
	return s.db.execPlan(ctx, s.clonePlan(), s.qo)
}

// Explain renders the prepared (refined) plan.
func (s *Stmt) Explain() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return plan.Explain(s.cached)
}
