package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"bufferdb/internal/client"
)

// opTimeout bounds one op so a wedged daemon fails the run instead of
// hanging it.
const opTimeout = 60 * time.Second

// session is a fleet that has been booted, connected to, primed and warmed:
// everything set-up produces and the timed phase consumes.
type session struct {
	w     workload
	fl    *fleet
	cl    *client.Client
	stmts map[string]*client.Stmt
	sched *schedule
	check *checker
	// baseRows is lineitem's cardinality before any insert, and inserts the
	// number of acknowledged INSERT ops since; only paged fleets use them.
	baseRows uint64
	inserts  uint64
}

// checker holds the first answer seen for each result key; every later op
// with that key must repeat it.
type checker struct {
	mu     sync.Mutex
	expect map[string]answer
}

func newChecker() *checker {
	// An INSERT op answers one row holding the batch size.
	return &checker{expect: map[string]answer{
		"insert": {rows: 1, sum: hashRow([]any{int64(insertRows)})},
	}}
}

func (c *checker) ok(key string, got answer) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	want, seen := c.expect[key]
	if !seen {
		c.expect[key] = got
		return true
	}
	return want == got
}

// setUp boots the workload's fleet and brings it to the state the timed
// phase starts from. The returned duration is the setup_s sample: first
// spawn to last warm-up op.
func setUp(w workload, seed uint64, bin, root string) (*session, time.Duration, error) {
	start := time.Now()
	dataDir := ""
	if w.fleet.paged {
		var err error
		if dataDir, err = scratchDir(root, "data-"); err != nil {
			return nil, 0, err
		}
	}
	fl, err := bootFleet(bin, w.fleet, dataDir)
	if err != nil {
		removeScratch(dataDir)
		return nil, 0, err
	}
	s := &session{w: w, fl: fl, sched: newSchedule(w, seed), check: newChecker(), stmts: map[string]*client.Stmt{}}
	if err := s.connect(); err != nil {
		s.close()
		return nil, 0, fmt.Errorf("%w\n%s", err, fl.stderrAll())
	}
	warm := s.run(0, func(i int) bool { return i >= w.warmup })
	if warm.failed > 0 {
		s.close()
		return nil, 0, fmt.Errorf("%s: %d of %d warm-up ops failed: %s\n%s", w.name, warm.failed, w.warmup, warm.firstErr, fl.stderrAll())
	}
	return s, time.Since(start), nil
}

// connect dials the fleet's front daemon with the workload's connection
// count, runs the prime statements once and prepares them.
func (s *session) connect() error {
	cl, err := client.Dial(s.fl.front().wire, client.Config{MaxConns: s.w.conns})
	if err != nil {
		return err
	}
	s.cl = cl
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	if s.w.fleet.paged {
		if s.baseRows, err = countLineitem(s.fl.front().wire); err != nil {
			return err
		}
	}
	for i, q := range s.w.prime {
		a, err := runQuery(ctx, func() (*client.Rows, error) { return cl.Query(ctx, q) }, nil)
		if err != nil {
			return fmt.Errorf("prime %d: %w", i, err)
		}
		s.check.ok(dashboardKey(i), a)
		s.stmts[q] = cl.Prepare(q)
	}
	return nil
}

// close releases the session's client, daemons and data directory. It is
// idempotent and safe on a nil session.
func (s *session) close() {
	if s == nil {
		return
	}
	if s.cl != nil {
		s.cl.Close()
		s.cl = nil
	}
	s.fl.close()
	removeScratch(s.fl.dataDir)
}

// runQuery opens a cursor, drains it into an answer and closes it. each, if
// set, sees every row.
func runQuery(ctx context.Context, open func() (*client.Rows, error), each func(row []any)) (answer, error) {
	rows, err := open()
	if err != nil {
		return answer{}, err
	}
	var a answer
	for rows.Next() {
		row := rows.Row()
		a.rows++
		a.sum += hashRow(row)
		if each != nil {
			each(row)
		}
	}
	err = rows.Err()
	if cerr := rows.Close(); err == nil {
		err = cerr
	}
	return a, err
}

// do sends one op through q and returns its answer.
func do(ctx context.Context, q *client.Client, stmts map[string]*client.Stmt, o op) (answer, error) {
	if o.kind == kindPrepared {
		return runQuery(ctx, func() (*client.Rows, error) { return stmts[o.sql].Query(ctx) }, nil)
	}
	return runQuery(ctx, func() (*client.Rows, error) { return q.Query(ctx, o.sql) }, nil)
}

// sample is one completed op of a run.
type sample struct {
	index  int
	class  int
	ms     float64 // send → last row drained → Close
	ans    answer
	failed bool
}

// runResult is what one closed-loop phase produced.
type runResult struct {
	samples  []sample
	failed   int
	firstErr string
	wall     time.Duration
	next     int // the first schedule index not issued
}

// run drives the schedule from index `from` in a closed loop over the
// workload's connections: each connection sends its next op only when its
// previous one has been answered, drained and closed. stop is asked, with
// the index about to be issued, before every op.
func (s *session) run(from int, stop func(i int) bool) runResult {
	var (
		mu   sync.Mutex
		next = from
		wg   sync.WaitGroup
		res  runResult
	)
	start := time.Now()
	for c := 0; c < s.w.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []sample
			var errText string
			for {
				mu.Lock()
				if stop(next) {
					mu.Unlock()
					break
				}
				i := next
				next++
				o := s.sched.at(i)
				mu.Unlock()

				ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
				t0 := time.Now()
				ans, err := do(ctx, s.cl, s.stmts, o)
				ms := float64(time.Since(t0).Nanoseconds()) / 1e6
				cancel()
				sm := sample{index: i, class: o.class, ms: ms, ans: ans}
				switch {
				case err != nil:
					sm.failed = true
					if errText == "" {
						errText = fmt.Sprintf("op %d (%s): %v", i, s.w.classes[o.class].name, err)
					}
				case !s.check.ok(o.key, ans):
					sm.failed = true
					if errText == "" {
						errText = fmt.Sprintf("op %d (%s): answer %+v differs from the first for %s", i, s.w.classes[o.class].name, ans, o.key)
					}
				case o.kind == kindInsert:
					mu.Lock()
					s.inserts++
					mu.Unlock()
				}
				mine = append(mine, sm)
			}
			mu.Lock()
			defer mu.Unlock()
			res.samples = append(res.samples, mine...)
			if res.firstErr == "" {
				res.firstErr = errText
			}
		}()
	}
	wg.Wait()
	res.wall, res.next = time.Since(start), next
	for _, sm := range res.samples {
		if sm.failed {
			res.failed++
		}
	}
	return res
}

// countLineitem asks a daemon for lineitem's cardinality.
func countLineitem(addr string) (uint64, error) {
	cl, err := client.Dial(addr, client.Config{MaxConns: 1})
	if err != nil {
		return 0, err
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	var n uint64
	_, err = runQuery(ctx, func() (*client.Rows, error) { return cl.Query(ctx, "SELECT COUNT(*) FROM lineitem") }, func(row []any) {
		n = uint64(row[0].(int64))
	})
	return n, err
}

// checkDurability verifies the paged daemon's writes: lineitem must hold the
// base rows plus every acknowledged batch, and must still hold them after
// the daemon is SIGKILLed and a new one recovers the same directory. It
// returns the recovery time (spawn of the new daemon to ready).
func (s *session) checkDurability() (time.Duration, error) {
	want := s.baseRows + insertRows*s.inserts
	got, err := countLineitem(s.fl.front().wire)
	if err != nil {
		return 0, err
	}
	if got != want {
		return 0, fmt.Errorf("lineitem holds %d rows, want %d (base %d + %d×%d acknowledged)", got, want, s.baseRows, insertRows, s.inserts)
	}
	s.cl.Close()
	s.cl = nil
	dir := s.fl.dataDir
	s.fl.close()
	start := time.Now()
	fl, err := bootFleet(s.fl.bin, s.w.fleet, dir)
	if err != nil {
		return 0, fmt.Errorf("reopen after SIGKILL: %w", err)
	}
	recovery := time.Since(start)
	s.fl = fl
	if got, err = countLineitem(fl.front().wire); err != nil {
		return 0, err
	}
	if got != want {
		return 0, fmt.Errorf("after SIGKILL and recovery lineitem holds %d rows, want %d", got, want)
	}
	return recovery, nil
}
