package server

import (
	"context"

	"bufferdb/internal/storage"
	"bufferdb/internal/wire"
)

// Backend is what a Server's sessions run statements against. The session
// loop — listener, handshake, dispatch, cancellation, batched streaming,
// error mapping — is written once against this seam; the
// package's own implementation serves a resident *bufferdb.DB (db.go) and
// *dist.Coordinator is the other. Implementations must be safe for
// concurrent use by many sessions.
type Backend interface {
	// QueryStream starts a statement under the given wire options. ctx is
	// canceled on a Cancel frame, a disconnect or server shutdown.
	QueryStream(ctx context.Context, sql string, opts wire.QueryOpts) (Cursor, error)

	// Tables lists the catalog with row counts. slice is the selector
	// QueryOpts.Slice uses: 0 is the default catalog, k addresses hosted
	// slice k-1.
	Tables(ctx context.Context, slice int32) ([]wire.TableInfo, error)
}

// Cursor is a streaming result as the session drives it onto the wire —
// the method set *bufferdb.Rows and *dist.Rows share. Values lends the
// current row in the engine's representation, one value per column, valid
// until the next call to Next: the session encodes it straight into the
// batch, so no cell is boxed between an operator and the socket.
type Cursor interface {
	Columns() []string
	Next() bool
	Values() storage.Row
	Err() error
	Close() error
}

// recorder is the result cache's tap on the stream loop, kept off the
// exported seam because only the DB backend has a cache to fill: a Cursor
// that also implements it is handed every encoded RowBatch payload as it
// is sent, and is told once the stream's Done frame went out — the only
// point at which a result may be stored, so canceled, failed and abandoned
// streams never reach the cache.
type recorder interface {
	recordBatch(payload []byte, rows uint32)
	recordDone()
}
