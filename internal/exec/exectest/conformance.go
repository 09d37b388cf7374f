// Package exectest holds the operator lifecycle checks every engine's
// tests run. Only tests import it, so no command links "testing".
package exectest

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"bufferdb/internal/exec"
)

// Conformance checks an operator against the open-next-close lifecycle
// contract every engine component relies on:
//
//   - a drained operator returns the same row count after reopening
//   - Open is idempotent (a second Open before draining resets cleanly)
//   - Next after Close errors instead of producing stale rows
//   - Close is idempotent
//   - an early Close (mid-stream) is clean: the operator can be reopened
//     and still produces the full result
//   - cancellation mid-stream is bounded: once the execution context is
//     canceled the operator either surfaces an error wrapping
//     context.Canceled or finishes its remaining rows, but never exceeds
//     its row count and never hangs
//
// mk must construct a fresh operator tree over the same input each call;
// the harness drives each instance uninstrumented. internal/exec,
// internal/core, internal/vec, internal/push and internal/bench run the same
// checks over operators, buffers, batch operators, adapters and pipelines.
func Conformance(t testing.TB, name string, mk func() exec.Operator) {
	t.Helper()

	baseline, err := drain(mk())
	if err != nil {
		t.Fatalf("%s: baseline run: %v", name, err)
	}

	// Open-twice: a second Open must reset, not corrupt, state.
	op := mk()
	ctx := &exec.Context{}
	if err := op.Open(ctx); err != nil {
		t.Fatalf("%s: first Open: %v", name, err)
	}
	if err := op.Open(ctx); err != nil {
		t.Fatalf("%s: second Open: %v", name, err)
	}
	n, err := drainOpened(ctx, op)
	if err != nil {
		t.Fatalf("%s: drain after double Open: %v", name, err)
	}
	if n != baseline {
		t.Errorf("%s: double Open changed row count: %d, want %d", name, n, baseline)
	}

	// Next-after-Close must error.
	op = mk()
	ctx = &exec.Context{}
	if err := op.Open(ctx); err != nil {
		t.Fatalf("%s: Open: %v", name, err)
	}
	if err := op.Close(ctx); err != nil {
		t.Fatalf("%s: Close: %v", name, err)
	}
	if _, err := op.Next(ctx); err == nil {
		t.Errorf("%s: Next after Close succeeded, want error", name)
	}

	// Close-idempotent.
	if err := op.Close(ctx); err != nil {
		t.Errorf("%s: second Close: %v", name, err)
	}

	// Reopen after Close must produce the full result again.
	n, err = drainOpened(ctx, openFresh(ctx, op))
	if err != nil {
		t.Fatalf("%s: drain after reopen: %v", name, err)
	}
	if n != baseline {
		t.Errorf("%s: reopen changed row count: %d, want %d", name, n, baseline)
	}

	// Early Close: abandoning a stream after one row must leave the
	// operator reopenable with the full result intact — the contract the
	// facade's Rows.Close relies on.
	op = mk()
	ctx = &exec.Context{}
	if err := op.Open(ctx); err != nil {
		t.Fatalf("%s: Open before early Close: %v", name, err)
	}
	if baseline > 0 {
		if _, err := op.Next(ctx); err != nil {
			t.Fatalf("%s: Next before early Close: %v", name, err)
		}
	}
	if err := op.Close(ctx); err != nil {
		t.Fatalf("%s: early Close: %v", name, err)
	}
	n, err = drainOpened(ctx, openFresh(ctx, op))
	if err != nil {
		t.Fatalf("%s: drain after early Close: %v", name, err)
	}
	if n != baseline {
		t.Errorf("%s: early Close lost rows on reopen: %d, want %d", name, n, baseline)
	}

	// Cancellation mid-stream. Blocking operators that already hold their
	// result in memory may legitimately run to EOF; everything else must
	// surface the context error. Either way the operator must terminate
	// within its row count and an error, if any, must wrap the context's.
	op = mk()
	cctx, cancel := context.WithCancel(context.Background())
	ctx = &exec.Context{Ctx: cctx}
	if err := op.Open(ctx); err != nil {
		t.Fatalf("%s: Open with context: %v", name, err)
	}
	if baseline > 0 {
		if _, err := op.Next(ctx); err != nil {
			t.Fatalf("%s: Next before cancel: %v", name, err)
		}
	}
	cancel()
	served, errored := 0, false
	for served <= baseline {
		row, err := op.Next(ctx)
		if err != nil {
			if !errors.Is(err, context.Canceled) {
				t.Errorf("%s: post-cancel error %v does not wrap context.Canceled", name, err)
			}
			errored = true
			break
		}
		if row == nil {
			break
		}
		served++
	}
	if !errored && served > baseline {
		t.Errorf("%s: produced more than %d rows after cancellation", name, baseline)
	}
	if err := op.Close(ctx); err != nil {
		t.Errorf("%s: Close after cancellation: %v", name, err)
	}
}

// openFresh opens op, panicking on error (callers just checked Close).
func openFresh(ctx *exec.Context, op exec.Operator) exec.Operator {
	if err := op.Open(ctx); err != nil {
		panic(fmt.Sprintf("exectest: conformance reopen: %v", err))
	}
	return op
}

// drain runs a fresh operator to completion and returns its row count.
func drain(op exec.Operator) (int, error) {
	ctx := &exec.Context{}
	if err := op.Open(ctx); err != nil {
		return 0, err
	}
	return drainOpened(ctx, op)
}

// drainOpened pulls an already-open operator dry and closes it.
func drainOpened(ctx *exec.Context, op exec.Operator) (int, error) {
	n := 0
	for {
		row, err := op.Next(ctx)
		if err != nil {
			_ = op.Close(ctx)
			return 0, err
		}
		if row == nil {
			break
		}
		n++
	}
	return n, op.Close(ctx)
}
