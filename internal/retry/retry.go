// Package retry is the one retry loop of the wire-facing layers: the
// cluster client's request and batch passes and the object store's reads
// and writes all back off through Do, on a Clock tests can replace.
//
// What Do shares is the policy: how many attempts, how long to wait
// between them, and that a done context ends the wait. What stays at each
// call site is the classification — which failures are worth another
// attempt and how long the server asked the caller to stay away.
package retry

import (
	"context"
	"fmt"
	"time"
)

// Backoff is the wait before the first retry; it doubles per retry.
const Backoff = 50 * time.Millisecond

// DefaultRetries is the retry budget an unset (zero) option gets.
const DefaultRetries = 3

// Clock is the time source Do waits on and the callers' breakers and
// Retry-After dates read.
type Clock interface {
	Now() time.Time
	After(d time.Duration) <-chan time.Time
}

// Wall is the real clock.
type Wall struct{}

// Now implements Clock.
func (Wall) Now() time.Time { return time.Now() }

// After implements Clock. An abandoned wait costs nothing: since Go 1.23
// an unreferenced timer is collected without being stopped.
func (Wall) After(d time.Duration) <-chan time.Time { return time.After(d) }

// Retries applies the shared defaults to a retry-budget option: 0 means
// DefaultRetries, a negative value means no retries.
func Retries(n int) int {
	if n == 0 {
		return DefaultRetries
	}
	return max(n, 0)
}

// Do calls attempt until it succeeds, returns a non-retryable error, or
// has been called 1+retries times. Between attempts it waits on clk for
// the larger of the backoff (Backoff, doubling) and the retryAfter the
// failed attempt reported. A non-retryable error is returned as is; an
// exhausted budget wraps the last error; a ctx done during a wait ends
// Do with an error that wraps both ctx.Err() and the last attempt's
// error.
func Do(ctx context.Context, clk Clock, retries int, attempt func() (retryAfter time.Duration, retryable bool, err error)) error {
	backoff := Backoff
	for n := 1; ; n++ {
		retryAfter, retryable, err := attempt()
		if err == nil || !retryable {
			return err
		}
		if n > retries {
			return fmt.Errorf("giving up after %d attempts: %w", n, err)
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%w after %d attempts (last error: %w)", ctx.Err(), n, err)
		case <-clk.After(max(backoff, retryAfter)):
		}
		backoff *= 2
	}
}
