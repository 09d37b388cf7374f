package bufferdb

import (
	"context"
	"time"

	"bufferdb/internal/exec"
	"bufferdb/internal/plan"
)

// A served statement always runs Volcano on the refined plan. The paper's
// other engines and plans are reproduction paths, reached in process; the
// helpers here let the differential and governor suites hold them to the
// served path's answers and containment contract.

// queryWith materializes query planned with the reproduction options po
// and run under the served options qo; see execOn.
func (db *DB) queryWith(ctx context.Context, query string, po PlanOptions, qo QueryOptions) (*Result, error) {
	return collect(db.streamWith(ctx, query, po, qo))
}

// streamWith plans query with po the way ExplainAnalyze does (refined
// unless po.DisableRefinement) and starts it on po.Engine through execOn.
func (db *DB) streamWith(ctx context.Context, query string, po PlanOptions, qo QueryOptions) (*Rows, error) {
	_, p, err := db.planPair(query, po, !po.DisableRefinement)
	if err != nil {
		return nil, err
	}
	return db.execOn(ctx, p, po.Engine, qo)
}

// execOn starts plan p on engine e under qo. A Volcano plan runs through
// execPlan, the served execution path. A vec or push plan runs in process
// under a test-only copy of the execution context execPlan builds — qo's
// deadline, a query tracker under the database's MemoryLimit, qo's fault
// injector, the reuse cache — without admission. No production path runs
// vec or push this way, so its subtests check this copy, not a served
// contract; and since the cursor's failure counters are the served
// engine="volcano" series, they are not vec/push metric coverage either.
// ROADMAP item 4 deletes execOn with the vec/push subtests that use it.
func (db *DB) execOn(ctx context.Context, p *plan.Node, e Engine, qo QueryOptions) (*Rows, error) {
	if e == EngineVolcano {
		return db.execPlan(ctx, p, qo)
	}
	var releases []func()
	if db.reuseCache != nil {
		p, releases = plan.ApplyReuse(p, db.reuseCache)
	}
	op, err := plan.Compile(p, nil, e)
	if err != nil {
		for _, rel := range releases {
			rel()
		}
		return nil, err
	}
	r := &Rows{op: op, cancel: func() {}, db: db, schema: p.Schema(), releases: releases, started: time.Now()}
	for _, c := range r.schema {
		r.cols = append(r.cols, c.Name)
	}
	if qo.Timeout > 0 {
		ctx, r.cancel = context.WithTimeout(ctx, qo.Timeout)
	}
	if qo.MemoryBudget > 0 || db.mem != nil {
		r.mem = exec.NewMemTracker("query", qo.MemoryBudget, db.mem)
	}
	r.ectx = &exec.Context{Catalog: db.cat, Ctx: ctx, Mem: r.mem, Fault: qo.FaultInjector}
	if err := exec.CallOpen(r.ectx, r.op); err != nil {
		r.fail(err)
		return nil, err
	}
	return r, nil
}
