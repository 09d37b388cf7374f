package server

import "bufferdb/internal/storage"

// cachedResult is a result cache entry's payload: the column header plus
// the already-encoded row-batch frames, ready to replay to any client.
// Batches are immutable once stored, so an entry may be replayed
// concurrently with (or after) its own eviction.
type cachedResult struct {
	cols    []string
	batches [][]byte
	rows    uint64
}

// A cache hit crosses the Backend seam as the entry itself. The session
// recognizes it and replays the stored frames, so as a Cursor it is an
// already-drained stream: nothing to pull, nothing to release.
func (r *cachedResult) Columns() []string   { return r.cols }
func (r *cachedResult) Next() bool          { return false }
func (r *cachedResult) Values() storage.Row { return nil }
func (r *cachedResult) Err() error          { return nil }
func (r *cachedResult) Close() error        { return nil }
