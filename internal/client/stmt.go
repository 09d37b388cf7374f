package client

import (
	"context"

	"bufferdb/internal/wire"
)

// Stmt is a client-side prepared statement: a statement text with its
// options fixed. Each execution sends it as a Query, so it takes the
// daemon's one read path — the database's plan cache binds the shape's
// plan template and, when the daemon runs a result cache, a repeated
// result is replayed from it. No statement state lives on a connection or
// in a session.
//
// A Stmt is safe for concurrent use.
type Stmt struct {
	c   *Client
	sql string
	o   wire.QueryOpts
}

// Prepare builds a prepared-statement handle. No network traffic happens
// until the first Query; a statement that cannot be planned surfaces its
// error there.
func (c *Client) Prepare(sql string, opts ...Option) *Stmt {
	return &Stmt{c: c, sql: sql, o: BuildOpts(opts...)}
}

// Text returns the statement's SQL.
func (s *Stmt) Text() string { return s.sql }

// Query executes the prepared statement and returns a streaming cursor,
// with the same busy-retry behavior as Client.Query.
func (s *Stmt) Query(ctx context.Context) (*Rows, error) {
	return s.c.Query(ctx, s.sql, WithQueryOpts(s.o))
}

// QueryAll executes the statement and materializes the whole result.
func (s *Stmt) QueryAll(ctx context.Context) (*Result, error) {
	rows, err := s.Query(ctx)
	if err != nil {
		return nil, err
	}
	return collect(rows)
}
