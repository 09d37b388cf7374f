package bufferdb

import (
	"context"

	"bufferdb/internal/exec"
	"bufferdb/internal/plan"
	"bufferdb/internal/storage"
)

// A served statement always runs Volcano on the refined plan, under the
// governor (execPlan). The paper's other engines and plans are reproduction
// paths, run in process without a governor; the differential suites reach
// them here and hold them to the served path's answers.

// queryWith plans query with the reproduction options po the way
// ExplainAnalyze does (refined unless po.DisableRefinement) and runs it on
// po.Engine. A Volcano plan runs through execPlan, the served path, under
// the database's MemoryLimit, so every differential baseline is the served
// execution; a vec or push plan runs ungoverned through runOn.
func (db *DB) queryWith(ctx context.Context, query string, po PlanOptions) (*Result, error) {
	_, p, err := db.planPair(query, po, !po.DisableRefinement)
	if err != nil {
		return nil, err
	}
	if po.Engine == EngineVolcano {
		return collect(db.execPlan(ctx, p, QueryOptions{}))
	}
	rows, err := db.runOn(ctx, p, po.Engine)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	for _, c := range p.Schema() {
		res.Columns = append(res.Columns, c.Name)
	}
	for _, row := range rows {
		res.Rows = append(res.Rows, row.Natives(nil))
	}
	return res, nil
}

// runOn drains plan p on engine e the way benchmark/layers.go runs vec and
// push: reuse applied when the database has a cache, no admission,
// deadline, memory tracker or fault injector.
func (db *DB) runOn(ctx context.Context, p *plan.Node, e Engine) ([]storage.Row, error) {
	if db.reuseCache != nil {
		var releases []func()
		p, releases = plan.ApplyReuse(p, db.reuseCache)
		defer func() {
			for _, rel := range releases {
				rel()
			}
		}()
	}
	op, err := plan.Compile(p, nil, e)
	if err != nil {
		return nil, err
	}
	return exec.Run(&exec.Context{Catalog: db.cat, Ctx: ctx}, op)
}
