// Command bufferdb is an interactive SQL shell over a generated TPC-H
// database, with the paper's buffering plan refinement on by default. With
// -connect it becomes a network client: the same shell drives a remote
// bufferdbd daemon over the wire protocol instead of an embedded engine.
//
// Usage:
//
//	bufferdb -sf 0.01                  # interactive shell, embedded engine
//	bufferdb -q "SELECT COUNT(*) FROM lineitem"
//	bufferdb -analyze -q "<sql>"             # per-operator table, refined plan
//	bufferdb -analyze -no-refine -q "<sql>"  # the same, conventional plan
//	bufferdb -analyze -engine push -q "<sql>" # the same, on the push engine
//	bufferdb -connect localhost:7687   # shell against a bufferdbd daemon
//
// Statements run the served plan — Volcano, refined — exactly as a bufferdbd
// daemon runs them. The paper's reproduction knobs reach only the
// introspection paths: -engine and \engine pick the engine -analyze,
// \analyze and \profile run on, and -no-refine makes -analyze and \analyze
// show the conventional plan. With -q they need -analyze: a plain -q
// refuses them rather than silently running the served plan.
//
// Ctrl-C cancels the statement in flight — locally through its context,
// remotely as a wire Cancel frame that frees the daemon's admission slot —
// and returns to the prompt instead of killing the shell.
//
// Shell meta-commands:
//
//	\explain <sql>   show the conventional and refined plans
//	\analyze <sql>   run instrumented and show per-operator runtime stats
//	\profile <sql>   run both plans on the simulated CPU and compare
//	\engine [name]   show or switch the engine of \analyze and \profile
//	\tables          list tables
//	\cache           show semantic reuse-cache statistics
//	\q               quit
//
// Over -connect only \tables and \q are available, and -analyze, -engine
// and -no-refine are refused: they need the embedded engine. Engine names
// (for -engine and \engine alike) go through bufferdb.ParseEngine, so the
// shell accepts exactly the engines the library exposes — volcano, vec,
// push.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"sync"

	"bufferdb"
	"bufferdb/internal/client"
)

func main() {
	var (
		sf       = flag.Float64("sf", 0.01, "TPC-H scale factor")
		query    = flag.String("q", "", "run one query and exit")
		noRefine = flag.Bool("no-refine", false, "with -analyze: the conventional plan, without buffering refinement")
		engine   = flag.String("engine", "", fmt.Sprintf("engine of -analyze and \\profile (%s; default: volcano)", strings.Join(bufferdb.EngineNames(), ", ")))
		analyze  = flag.Bool("analyze", false, "with -q: EXPLAIN ANALYZE — print the per-operator stats table on the simulated CPU instead of rows (with -no-refine: the conventional plan)")
		metrics  = flag.Bool("metrics", false, "after -q: dump the process metrics registry (Prometheus text format)")
		connect  = flag.String("connect", "", "address of a bufferdbd daemon; queries run remotely instead of in-process")
		reuse    = flag.Bool("reuse-cache", true, "recycle hash-join builds and aggregate tables across queries (\\cache shows stats)")
	)
	flag.Parse()

	ints := newInterrupts()

	if *connect != "" {
		remoteMain(ints, *connect, *query, *engine, *noRefine, *analyze, *metrics)
		return
	}
	if *query != "" && !*analyze {
		refuse("needs -analyze; -q alone runs the served plan (Volcano, refined)",
			flagUse{"-engine", *engine != ""}, flagUse{"-no-refine", *noRefine})
	}

	db, err := bufferdb.OpenTPCH(*sf, bufferdb.Options{ReuseCache: *reuse})
	if err != nil {
		fatal(err)
	}
	sh := &shell{db: db, noRefine: *noRefine}
	if *engine != "" {
		if sh.engine, err = bufferdb.ParseEngine(*engine); err != nil {
			fatal(err)
		}
	}

	if *query != "" {
		q := strings.TrimSuffix(strings.TrimSpace(*query), ";")
		ctx, stop := ints.queryContext()
		if *analyze {
			err = runAnalyze(ctx, db, q, sh.planOpts()...)
		} else {
			err = runQuery(ctx, db, q)
		}
		stop()
		if err != nil {
			fatal(err)
		}
		if *metrics {
			if err := bufferdb.WriteMetrics(os.Stdout); err != nil {
				fatal(err)
			}
		}
		return
	}

	fmt.Printf("bufferdb — TPC-H SF %g loaded (%v). End statements with ';', \\q quits, Ctrl-C cancels.\n", *sf, db.Tables())
	repl(ints, func(q string) error {
		ctx, stop := ints.queryContext()
		defer stop()
		return runQuery(ctx, db, q)
	}, func(cmd string) bool { return metaCommand(ints, sh, cmd) })
}

// shell is the embedded shell's session state: the engine \engine or
// -engine selected (Volcano until one does) and -no-refine. Both ride on
// -analyze, \analyze and \profile; plain statements run the served plan.
type shell struct {
	db       *bufferdb.DB
	engine   bufferdb.Engine
	noRefine bool
}

// planOpts are the reproduction options the session state selects.
func (sh *shell) planOpts() []bufferdb.PlanOption {
	opts := []bufferdb.PlanOption{bufferdb.WithEngine(sh.engine)}
	if sh.noRefine {
		opts = append(opts, bufferdb.WithoutRefinement())
	}
	return opts
}

// remoteMain is the -connect entry point: the shell (or -q) drives a
// bufferdbd daemon through internal/client.
func remoteMain(ints *interrupts, addr, query, engine string, noRefine, analyze, metrics bool) {
	refuse("needs the embedded engine; it is not available with -connect",
		flagUse{"-analyze", analyze}, flagUse{"-engine", engine != ""}, flagUse{"-no-refine", noRefine})
	if metrics {
		fatal(errors.New("-metrics is local-only; scrape the daemon's -http sidecar /metrics instead"))
	}
	c, err := client.Dial(addr, client.Config{})
	if err != nil {
		fatal(err)
	}
	defer c.Close()

	run := func(q string) error {
		ctx, stop := ints.queryContext()
		defer stop()
		res, err := c.QueryAll(ctx, strings.TrimSuffix(strings.TrimSpace(q), ";"))
		if err != nil {
			return err
		}
		printResult(res.Columns, res.Rows)
		return nil
	}

	if query != "" {
		if err := run(query); err != nil {
			fatal(err)
		}
		return
	}

	fmt.Printf("bufferdb — connected to %s (%s). End statements with ';', \\q quits, Ctrl-C cancels.\n", addr, c.ServerInfo())
	repl(ints, run, func(cmd string) bool {
		switch {
		case cmd == "\\q" || cmd == "\\quit":
			return true
		case cmd == "\\tables":
			tabs, err := c.Tables(context.Background())
			if err != nil {
				fmt.Println("error:", err)
				break
			}
			for _, t := range tabs {
				fmt.Printf("  %-12s %10d rows\n", t.Name, t.Rows)
			}
		case cmd == "\\cache":
			fmt.Println("reuse-cache stats live in the daemon: scrape its -http sidecar /metrics (bufferdb_reuse_*)")
		default:
			fmt.Println("commands over -connect: \\tables, \\q")
		}
		return false
	})
}

// flagUse is a command-line flag and whether the user set it.
type flagUse struct {
	name string
	set  bool
}

// refuse fails naming the first set flag in fs: the selected mode would
// ignore it, and a flag that does nothing is an error, not a no-op.
func refuse(why string, fs ...flagUse) {
	for _, f := range fs {
		if f.set {
			fatal(fmt.Errorf("%s %s", f.name, why))
		}
	}
}

// repl drives the line loop shared by the local and remote shells.
func repl(ints *interrupts, run func(q string) error, meta func(cmd string) bool) {
	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var pending strings.Builder
	fmt.Print("bufferdb> ")
	for scanner.Scan() {
		line := scanner.Text()
		trimmed := strings.TrimSpace(line)
		switch {
		case pending.Len() == 0 && strings.HasPrefix(trimmed, "\\"):
			if done := meta(trimmed); done {
				return
			}
		default:
			pending.WriteString(line)
			pending.WriteByte('\n')
			if strings.HasSuffix(trimmed, ";") {
				if err := run(pending.String()); err != nil {
					if errors.Is(err, context.Canceled) {
						fmt.Println("canceled")
					} else {
						fmt.Println("error:", err)
					}
				}
				pending.Reset()
			}
		}
		fmt.Print("bufferdb> ")
	}
}

// interrupts owns the process's SIGINT stream so Ctrl-C cancels the
// statement in flight instead of killing the shell.
type interrupts struct {
	ch chan os.Signal
}

func newInterrupts() *interrupts {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt)
	return &interrupts{ch: ch}
}

// queryContext returns a context canceled by the next Ctrl-C. The stop
// function releases the watcher; call it as soon as the statement
// finishes so a later Ctrl-C doesn't act on a dead query. Interrupts
// delivered between statements are drained, not replayed.
func (in *interrupts) queryContext() (context.Context, func()) {
	select {
	case <-in.ch:
	default:
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		select {
		case <-in.ch:
			cancel()
		case <-done:
		}
	}()
	var once sync.Once
	return ctx, func() {
		once.Do(func() { close(done) })
		cancel()
	}
}

// metaCommand handles backslash commands; returns true to quit.
func metaCommand(ints *interrupts, sh *shell, cmd string) bool {
	db := sh.db
	switch {
	case cmd == "\\q" || cmd == "\\quit":
		return true
	case cmd == "\\tables":
		for _, t := range db.Tables() {
			n, _ := db.RowCount(t)
			fmt.Printf("  %-12s %10d rows\n", t, n)
		}
	case cmd == "\\engine":
		fmt.Printf("engine: %s (available: %s)\n", sh.engine, strings.Join(bufferdb.EngineNames(), ", "))
	case strings.HasPrefix(cmd, "\\engine "):
		e, err := bufferdb.ParseEngine(strings.TrimSpace(strings.TrimPrefix(cmd, "\\engine ")))
		if err != nil {
			fmt.Println("error:", err)
			break
		}
		sh.engine = e
		fmt.Printf("engine set to %s\n", e)
	case strings.HasPrefix(cmd, "\\explain "):
		orig, refined, err := db.Explain(strings.TrimPrefix(cmd, "\\explain "))
		if err != nil {
			fmt.Println("error:", err)
			break
		}
		fmt.Println("-- conventional plan:")
		fmt.Print(orig)
		fmt.Println("-- refined plan:")
		fmt.Print(refined)
	case strings.HasPrefix(cmd, "\\analyze "):
		ctx, stop := ints.queryContext()
		err := runAnalyze(ctx, db, strings.TrimPrefix(cmd, "\\analyze "), sh.planOpts()...)
		stop()
		if err != nil {
			fmt.Println("error:", err)
		}
	case cmd == "\\cache":
		printReuseStats(db)
	case strings.HasPrefix(cmd, "\\profile "):
		prof, err := db.Profile(strings.TrimPrefix(cmd, "\\profile "), bufferdb.WithEngine(sh.engine))
		if err != nil {
			fmt.Println("error:", err)
			break
		}
		fmt.Printf("original:  %.4fs  L1I misses %d  mispredicts %d  CPI %.2f\n",
			prof.Original.ElapsedSec, prof.Original.L1IMisses, prof.Original.Mispredicts, prof.Original.CPI)
		fmt.Printf("buffered:  %.4fs  L1I misses %d  mispredicts %d  CPI %.2f\n",
			prof.Buffered.ElapsedSec, prof.Buffered.L1IMisses, prof.Buffered.Mispredicts, prof.Buffered.CPI)
		fmt.Printf("improvement %.1f%% with %d buffer(s)\n", prof.ImprovementPct, prof.BuffersInserted)
	default:
		fmt.Println("commands: \\tables, \\engine [name], \\cache, \\explain <sql>, \\analyze <sql>, \\profile <sql>, \\q")
	}
	return false
}

// printReuseStats renders the semantic reuse cache's counters.
func printReuseStats(db *bufferdb.DB) {
	s := db.ReuseStats()
	if s.MaxBytes == 0 {
		fmt.Println("reuse cache: disabled (start with -reuse-cache)")
		return
	}
	fmt.Printf("reuse cache: %d entries, %d / %d bytes\n", s.Entries, s.Bytes, s.MaxBytes)
	fmt.Printf("  hits %d  misses %d  deferred %d  evictions %d  invalidations %d\n",
		s.Hits, s.Misses, s.Deferred, s.Evictions, s.Invalidations)
}

// runAnalyze executes a statement instrumented on the simulated CPU and
// prints the per-operator stats table.
func runAnalyze(ctx context.Context, db *bufferdb.DB, q string, opts ...bufferdb.PlanOption) error {
	a, err := db.ExplainAnalyze(ctx, strings.TrimSuffix(strings.TrimSpace(q), ";"), opts...)
	if err != nil {
		return err
	}
	fmt.Print(a.String())
	return nil
}

// runQuery executes a statement on the served plan and prints a bounded
// result table.
func runQuery(ctx context.Context, db *bufferdb.DB, q string) error {
	res, err := db.Query(ctx, strings.TrimSuffix(strings.TrimSpace(q), ";"))
	if err != nil {
		return err
	}
	printResult(res.Columns, res.Rows)
	return nil
}

// printResult renders a materialized result, bounded to keep the terminal
// usable.
func printResult(cols []string, rows [][]any) {
	fmt.Println(strings.Join(cols, " | "))
	const maxRows = 50
	for i, row := range rows {
		if i == maxRows {
			fmt.Printf("... (%d more rows)\n", len(rows)-maxRows)
			break
		}
		parts := make([]string, len(row))
		for j, v := range row {
			parts[j] = fmt.Sprint(v)
		}
		fmt.Println(strings.Join(parts, " | "))
	}
	fmt.Printf("(%d rows)\n", len(rows))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bufferdb:", err)
	os.Exit(1)
}
