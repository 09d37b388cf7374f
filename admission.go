package bufferdb

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"
)

// AdmissionConfig bounds how many queries a database executes at once.
// MaxConcurrent <= 0 disables admission control entirely; queries are then
// never queued or rejected.
type AdmissionConfig struct {
	// MaxConcurrent is the number of queries allowed to execute
	// simultaneously.
	MaxConcurrent int
	// MaxQueued is the number of queries allowed to wait for a slot once
	// all MaxConcurrent are taken. A query arriving with the queue full is
	// rejected immediately with ErrServerBusy.
	MaxQueued int
	// WaitTimeout caps how long a queued query waits for a slot before
	// being shed with ErrServerBusy. Zero waits until the caller's context
	// expires.
	WaitTimeout time.Duration
}

// admission is the semaphore + bounded wait queue behind AdmissionConfig.
// A nil *admission is inert: acquire and release are no-ops.
type admission struct {
	slots     chan struct{}
	queued    atomic.Int64
	maxQueued int64
	wait      time.Duration
}

// newAdmission builds the controller, or nil when the config disables it.
func newAdmission(cfg AdmissionConfig) *admission {
	if cfg.MaxConcurrent <= 0 {
		return nil
	}
	return &admission{
		slots:     make(chan struct{}, cfg.MaxConcurrent),
		maxQueued: int64(cfg.MaxQueued),
		wait:      cfg.WaitTimeout,
	}
}

// acquire claims an execution slot, queueing when all are taken. It returns
// a wrapped ErrServerBusy when the wait queue is full or the wait times
// out, and the context's error when ctx expires first.
func (a *admission) acquire(ctx context.Context) error {
	if a == nil {
		return nil
	}
	select {
	case a.slots <- struct{}{}:
		return nil
	default:
	}
	if n := a.queued.Add(1); n > a.maxQueued {
		a.queued.Add(-1)
		return fmt.Errorf("bufferdb: %w: %d queries executing, %d queued",
			ErrServerBusy, cap(a.slots), n-1)
	}
	defer a.queued.Add(-1)
	var expired <-chan time.Time
	if a.wait > 0 {
		t := time.NewTimer(a.wait)
		defer t.Stop()
		expired = t.C
	}
	select {
	case a.slots <- struct{}{}:
		return nil
	case <-expired:
		return fmt.Errorf("bufferdb: %w: no slot freed within %v", ErrServerBusy, a.wait)
	case <-ctx.Done():
		if err := ctx.Err(); err == context.DeadlineExceeded {
			return fmt.Errorf("bufferdb: %w while queued for admission: %w", ErrDeadlineExceeded, err)
		}
		return fmt.Errorf("bufferdb: canceled while queued for admission: %w", ctx.Err())
	}
}

// release frees a slot claimed by acquire.
func (a *admission) release() {
	if a == nil {
		return
	}
	<-a.slots
}
