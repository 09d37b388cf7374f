package bench

import (
	"fmt"
	"os"
	"time"

	"bufferdb/internal/pager"
	"bufferdb/internal/storage"
)

// ExperimentStorage measures the persistent storage tier against the
// memory-resident baseline the paper evaluates on: sequential-scan
// throughput of lineitem in memory vs streamed through buffer pools sized
// at 10%, 50% and 100% of the table, with each pool's hit, miss and
// eviction counts. The paper's buffering keeps instructions cache-resident; this tier applies
// the same residency argument to data pages, and the experiment quantifies
// what the pool must absorb before the paged scan approaches memory speed.
func ExperimentStorage(r *Runner) (*Report, error) {
	rep := &Report{ID: "storage", Title: "Persistent tier: in-memory vs paged scans"}

	mem, err := r.DB.Table("lineitem")
	if err != nil {
		return nil, err
	}
	rows := mem.Rows()
	nRows := len(rows)

	dir, err := os.MkdirTemp("", "bufferdb-bench-storage")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	s, err := pager.Open(dir, pager.Options{})
	if err != nil {
		return nil, err
	}
	if _, err := s.CreateTable("lineitem", mem.Schema()); err != nil {
		s.Close()
		return nil, err
	}
	if err := s.BulkLoad("lineitem", rows); err != nil {
		s.Close()
		return nil, err
	}
	pages := int64(s.PoolStats().ResidentPages) // 0 — bulk load bypasses the pool
	if err := s.Close(); err != nil {
		return nil, err
	}
	if fi, err := os.Stat(dir + "/lineitem.heap"); err == nil {
		pages = fi.Size() / pager.DefaultPageSize
	}

	// Baseline: the memory-resident scan every other experiment runs on.
	memSec := scanSeconds(mem)
	rep.Printf("lineitem: %d rows, %d pages of %d bytes on disk", nRows, pages, pager.DefaultPageSize)
	rep.Printf("%-28s %12s %14s", "configuration", "scan sec", "Mrows/sec")
	rep.Printf("%-28s %12.4f %14.2f", "in-memory slice", memSec, float64(nRows)/memSec/1e6)

	for _, pct := range []int{10, 50, 100} {
		poolBytes := pages * pager.DefaultPageSize * int64(pct) / 100
		ps, err := pager.Open(dir, pager.Options{PoolBytes: poolBytes})
		if err != nil {
			return nil, err
		}
		tbl, err := ps.Table("lineitem")
		if err != nil {
			ps.Close()
			return nil, err
		}
		// One warm scan populates the pool, then the measured scan shows
		// the steady state (full reuse at 100%, full wash-through at 10%).
		if sec := scanSeconds(tbl); sec < 0 {
			ps.Close()
			return nil, fmt.Errorf("warm scan failed")
		}
		sec := scanSeconds(tbl)
		st := ps.PoolStats()
		rep.Printf("%-28s %12.4f %14.2f   (hits %d, misses %d, evictions %d)",
			fmt.Sprintf("paged, pool %d%% of table", pct), sec, float64(nRows)/sec/1e6,
			st.Hits, st.Misses, st.Evictions)
		if err := ps.Close(); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// scanSeconds drains one full cursor pass over the table, keeping every
// row as a scan without a filter does, and returns the wall seconds, or -1
// on error. The column count accumulator keeps the loop from being
// optimized away.
func scanSeconds(tbl *storage.Table) float64 {
	cur, err := tbl.Scan(nil, nil)
	if err != nil {
		return -1
	}
	cells := 0
	start := time.Now()
	for {
		row, err := cur.Next()
		if err != nil {
			return -1
		}
		if row == nil {
			break
		}
		cells += len(cur.Keep())
	}
	sec := time.Since(start).Seconds()
	if cells < 0 || sec <= 0 {
		return 1e-9
	}
	return sec
}
