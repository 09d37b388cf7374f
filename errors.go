package bufferdb

import (
	"errors"

	"bufferdb/internal/exec"
	"bufferdb/internal/pager"
	"bufferdb/internal/sql"
	"bufferdb/internal/storage"
	"bufferdb/internal/tpch"
)

// Sentinel errors returned (wrapped) by the facade. Test with errors.Is;
// the dynamic error carries the offending name alongside.
var (
	// ErrUnknownTable is wrapped by catalog lookups for a missing table
	// (RowCount, or a query referencing one).
	ErrUnknownTable = storage.ErrUnknownTable
	// ErrUnknownEngine is wrapped when WithEngine (or ParseEngine) names an
	// engine that does not exist.
	ErrUnknownEngine = errors.New("unknown engine")
	// ErrBadJoinMethod is wrapped when QueryOptions.ForceJoin is not one of
	// "", "hash", "nestloop", "merge". It is detected at plan time, before
	// any execution starts.
	ErrBadJoinMethod = sql.ErrBadJoinMethod
	// ErrBadScaleFactor is wrapped when OpenTPCH is given a scale factor
	// that cannot generate a catalog: zero, negative, NaN or infinite.
	ErrBadScaleFactor = tpch.ErrBadScaleFactor
	// ErrRowsClosed is returned by Rows.Scan after the cursor was closed.
	ErrRowsClosed = errors.New("rows are closed")
	// ErrReadOnly is wrapped when an INSERT targets a memory-resident table.
	// Only tables backed by the persistent storage tier (Options.DataDir)
	// accept writes — the in-memory catalog is built once and immutable.
	ErrReadOnly = errors.New("table is read-only")
	// ErrCorruptData is wrapped when the persistent storage tier finds a
	// torn page, a bad checksum, or an undecodable record.
	ErrCorruptData = pager.ErrCorrupt

	// ErrMemoryBudgetExceeded is wrapped when a query's tracked allocations
	// overrun its WithMemoryBudget value or the database's MemoryLimit.
	ErrMemoryBudgetExceeded = exec.ErrMemoryBudgetExceeded
	// ErrDeadlineExceeded is wrapped when a query's WithTimeout clock (or
	// the caller's context deadline) expires mid-execution. The chain also
	// carries context.DeadlineExceeded.
	ErrDeadlineExceeded = exec.ErrDeadlineExceeded
	// ErrServerBusy is wrapped when admission control sheds a query: the
	// wait queue is full, or no execution slot freed within the wait
	// timeout.
	ErrServerBusy = errors.New("server busy")
	// ErrQueryPanic is wrapped when an operator panics during execution.
	// The panic is contained — the plan tears down and the process keeps
	// serving — and the stack is in the error text.
	ErrQueryPanic = exec.ErrOperatorPanic
	// ErrShardUnavailable is wrapped when a distributed query fails because
	// a shard could not be reached or died mid-stream. The coordinator
	// cancels the sibling shard streams before surfacing it.
	ErrShardUnavailable = errors.New("shard unavailable")
)
