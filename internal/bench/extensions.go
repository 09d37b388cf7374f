package bench

import (
	"fmt"

	"bufferdb/internal/codemodel"
	"bufferdb/internal/plan"
	"bufferdb/internal/sql"
)

// The extension experiments reproduce the paper's §2 related-work arguments
// quantitatively. Neither instruction prefetching (ext1) nor profile-guided
// code layout (ext2) removes pipeline thrashing, because neither shrinks
// the per-tuple instruction footprint; block-oriented processing and
// push-fused pipelines (ext3) do, at the price of rewriting every operator.

// ExperimentExtPrefetch compares the unbuffered Query 1 pipeline with and
// without a next-3-line instruction prefetcher, against the buffered plan.
// Prefetching converts most straight-line fetches into hits but still pays
// one serial stall per run of lines — the footprint is refetched every
// tuple regardless. Buffering removes the refetch itself.
func ExperimentExtPrefetch(r *Runner) (*Report, error) {
	rep := &Report{ID: "ext1", Title: "Related work: next-line instruction prefetching vs buffering"}
	pfCfg := r.CPUCfg
	pfCfg.L1IPrefetchNextLines = 3

	base, err := r.run(Query1, sql.Options{}, false, plan.EngineVolcano)
	if err != nil {
		return nil, err
	}
	pf, err := r.measure("prefetch", mustPlan(r, Query1), plan.EngineVolcano, pfCfg, r.CM)
	if err != nil {
		return nil, err
	}
	buf, err := r.run(Query1, sql.Options{}, true, plan.EngineVolcano)
	if err != nil {
		return nil, err
	}
	if pf.FirstRow != base.FirstRow || buf.FirstRow != base.FirstRow {
		return nil, fmt.Errorf("ext1: variants disagree on the result")
	}
	clock := r.CPUCfg.ClockHz
	rep.Lines = append(rep.Lines, fmtBreakdownRow("original", base, clock))
	rep.Lines = append(rep.Lines, fmtBreakdownRow("original+prefetch", pf, clock))
	rep.Lines = append(rep.Lines, fmtBreakdownRow("buffered (no pf)", buf, clock))
	rep.Printf("prefetch cut L1I misses by %.1f%% (%d → %d, %d lines prefetched)",
		reduction(base.Counters.L1IMisses, pf.Counters.L1IMisses),
		base.Counters.L1IMisses, pf.Counters.L1IMisses, pf.Counters.L1IPrefetches)
	rep.Printf("…but buffering cut them by %.1f%% and runs %.1f%% faster than prefetching",
		reduction(base.Counters.L1IMisses, buf.Counters.L1IMisses),
		improvement(pf.ElapsedSec, buf.ElapsedSec))
	return rep, nil
}

// ExperimentExtLayout compares the scattered binary layout against a
// profile-guided "packed" layout. Packing collapses the ITLB working set
// (the pipeline fits in a handful of pages) but the instruction footprint
// in cache lines is unchanged, so L1I thrashing — and buffering's win —
// remain.
func ExperimentExtLayout(r *Runner) (*Report, error) {
	rep := &Report{ID: "ext2", Title: "Related work: profile-guided code layout vs buffering"}
	packedCM := codemodel.NewCatalogWithLayout(codemodel.LayoutPacked)

	p, err := r.Plan(Query1, sql.Options{})
	if err != nil {
		return nil, err
	}
	refined, err := r.Refine(p)
	if err != nil {
		return nil, err
	}

	scattered, err := r.run(Query1, sql.Options{}, false, plan.EngineVolcano)
	if err != nil {
		return nil, err
	}
	packed, err := r.measure("packed", p, plan.EngineVolcano, r.CPUCfg, packedCM)
	if err != nil {
		return nil, err
	}
	packedBuf, err := r.measure("packed+buffered", refined, plan.EngineVolcano, r.CPUCfg, packedCM)
	if err != nil {
		return nil, err
	}
	clock := r.CPUCfg.ClockHz
	rep.Lines = append(rep.Lines, fmtBreakdownRow("scattered layout", scattered, clock))
	rep.Lines = append(rep.Lines, fmtBreakdownRow("packed layout", packed, clock))
	rep.Lines = append(rep.Lines, fmtBreakdownRow("packed + buffered", packedBuf, clock))
	rep.Printf("packing cut ITLB misses by %.1f%% (%d → %d)…",
		reduction(scattered.Counters.ITLBMisses, packed.Counters.ITLBMisses),
		scattered.Counters.ITLBMisses, packed.Counters.ITLBMisses)
	rep.Printf("…but left %.1f%% of the L1I misses (%d → %d): the footprint still exceeds the cache",
		100-reduction(scattered.Counters.L1IMisses, packed.Counters.L1IMisses),
		scattered.Counters.L1IMisses, packed.Counters.L1IMisses)
	rep.Printf("buffering on top of packing still gains %.1f%%",
		improvement(packed.ElapsedSec, packedBuf.ElapsedSec))
	return rep, nil
}

// ExperimentExt3 is the showdown the paper's §2 argues by reference:
// buffering (light-weight, plan-level) against rewriting every operator.
// Each case runs four ways on identical simulated machines — the original
// Volcano plan, the refined (buffered) plan, the vec engine's block-oriented
// compilation and the push engine's fused pipelines (one producer-driven
// loop per execution group, materializing only at pipeline breakers) —
// reporting L1I misses, branch mispredictions, µops and cycles.
//
// All three alternatives amortize instruction fetch over ~1024-tuple
// batches, so their L1I miss counts land close together and far below the
// original plan's; the rewritten engines additionally skip the buffer's
// per-tuple serve path, which shows in the µop and cycle columns. That
// matches the paper's position: buffering captures most of the benefit
// without rewriting any operator. Query 2's footprint fits the cache, so
// every variant pays only cold misses (§5.2); the nestloop and merge cases
// run their join as a Volcano island under the push engine.
func ExperimentExt3(r *Runner) (*Report, error) {
	rep := &Report{ID: "ext3", Title: "Block-oriented and push-fused processing vs buffering"}
	cases := []struct {
		label string
		query string
		opt   sql.Options
		// strict marks plans the push compiler fuses end to end whose
		// footprint overflows L1I: fusion must beat the original there.
		strict bool
	}{
		{"Query 1", Query1, sql.Options{}, true},
		{"Query 2", Query2, sql.Options{}, false},
		{"Query 3 (nestloop)", Query3, sql.Options{ForceJoin: sql.JoinNestLoop}, false},
		{"Query 3 (hash)", Query3, sql.Options{ForceJoin: sql.JoinHash}, true},
		{"Query 3 (merge)", Query3, sql.Options{ForceJoin: sql.JoinMerge}, false},
	}
	variants := []struct {
		label   string
		refined bool
		engine  plan.Engine
	}{
		{"original", false, plan.EngineVolcano},
		{"buffered", true, plan.EngineVolcano},
		{"vectorized", false, plan.EngineVec},
		{"push-fused", false, plan.EnginePush},
	}
	clock := r.CPUCfg.ClockHz
	for _, c := range cases {
		var all []*Measurement
		for _, v := range variants {
			m, err := r.run(c.query, c.opt, v.refined, v.engine)
			if err != nil {
				return nil, err
			}
			all = append(all, m)
		}
		orig, buf, vec, psh := all[0], all[1], all[2], all[3]
		for i, m := range all {
			if m.Rows != orig.Rows || m.FirstRow != orig.FirstRow {
				return nil, fmt.Errorf("ext3: %s %s changed the result: %d rows %q vs %d rows %q",
					c.label, variants[i].label, m.Rows, m.FirstRow, orig.Rows, orig.FirstRow)
			}
		}
		if c.strict && psh.Counters.L1IMisses >= orig.Counters.L1IMisses {
			return nil, fmt.Errorf("ext3: %s fusion did not reduce L1I misses: %d vs original %d",
				c.label, psh.Counters.L1IMisses, orig.Counters.L1IMisses)
		}
		rep.Printf("--- %s ---", c.label)
		for i, m := range all {
			rep.Lines = append(rep.Lines, fmtBreakdownRow(variants[i].label, m, clock))
		}
		for i, m := range all {
			rep.Printf("%-12s L1I misses=%9d  mispredicts=%9d  uops=%11d  cycles=%12.0f",
				variants[i].label, m.Counters.L1IMisses, m.Counters.Mispredicts, m.Counters.Uops,
				m.ElapsedSec*clock)
		}
		rep.Printf("L1I miss reduction vs original: buffered %.1f%%, vectorized %.1f%%, push-fused %.1f%%",
			reduction(orig.Counters.L1IMisses, buf.Counters.L1IMisses),
			reduction(orig.Counters.L1IMisses, vec.Counters.L1IMisses),
			reduction(orig.Counters.L1IMisses, psh.Counters.L1IMisses))
		rep.Printf("elapsed vs buffered: vectorized %+.1f%%, push-fused %+.1f%%",
			improvement(buf.ElapsedSec, vec.ElapsedSec),
			improvement(buf.ElapsedSec, psh.ElapsedSec))
	}
	return rep, nil
}
