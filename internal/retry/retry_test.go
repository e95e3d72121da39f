package retry

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"
)

// recorder is a Clock whose waits end at once and are recorded.
type recorder struct{ waits []time.Duration }

func (r *recorder) Now() time.Time { return time.Time{} }

func (r *recorder) After(d time.Duration) <-chan time.Time {
	r.waits = append(r.waits, d)
	ch := make(chan time.Time, 1)
	ch <- time.Time{}
	return ch
}

// never is a Clock whose waits never end.
type never struct{}

func (never) Now() time.Time                       { return time.Time{} }
func (never) After(time.Duration) <-chan time.Time { return nil }

var errFlaky = errors.New("flaky")

// failing returns an attempt that fails retryably with the given
// Retry-After hints, one per call (zero past the end), and counts calls.
func failing(calls *int, hints ...time.Duration) func() (time.Duration, bool, error) {
	return func() (time.Duration, bool, error) {
		*calls++
		var ra time.Duration
		if *calls <= len(hints) {
			ra = hints[*calls-1]
		}
		return ra, true, errFlaky
	}
}

func TestBackoffDoubles(t *testing.T) {
	clk, calls := &recorder{}, 0
	err := Do(context.Background(), clk, 3, failing(&calls))
	if !errors.Is(err, errFlaky) {
		t.Fatalf("err = %v, want the last attempt's error", err)
	}
	if calls != 4 {
		t.Fatalf("%d attempts, want 4 (1 + 3 retries)", calls)
	}
	want := []time.Duration{50 * time.Millisecond, 100 * time.Millisecond, 200 * time.Millisecond}
	if !slices.Equal(clk.waits, want) {
		t.Fatalf("waits = %v, want %v", clk.waits, want)
	}
}

func TestRetryAfterWinsOverShorterBackoff(t *testing.T) {
	clk, calls := &recorder{}, 0
	// A 1 s hint beats the 50 ms backoff; a 10 ms hint loses to 100 ms.
	Do(context.Background(), clk, 2, failing(&calls, time.Second, 10*time.Millisecond)) //nolint:errcheck // waits are the point
	want := []time.Duration{time.Second, 100 * time.Millisecond}
	if !slices.Equal(clk.waits, want) {
		t.Fatalf("waits = %v, want %v", clk.waits, want)
	}
}

func TestSuccessAfterRetry(t *testing.T) {
	clk, calls := &recorder{}, 0
	err := Do(context.Background(), clk, 3, func() (time.Duration, bool, error) {
		if calls++; calls < 3 {
			return 0, true, errFlaky
		}
		return 0, false, nil
	})
	if err != nil || calls != 3 || len(clk.waits) != 2 {
		t.Fatalf("err = %v after %d attempts and %d waits, want nil after 3 and 2", err, calls, len(clk.waits))
	}
}

func TestNonRetryableStopsAtOnce(t *testing.T) {
	clk, calls := &recorder{}, 0
	errFatal := errors.New("fatal")
	err := Do(context.Background(), clk, 3, func() (time.Duration, bool, error) {
		calls++
		return time.Second, false, errFatal
	})
	if err != errFatal {
		t.Fatalf("err = %v, want the attempt's error unwrapped", err)
	}
	if calls != 1 || len(clk.waits) != 0 {
		t.Fatalf("%d attempts and %d waits, want 1 and 0", calls, len(clk.waits))
	}
}

func TestZeroRetriesIsOneAttempt(t *testing.T) {
	clk, calls := &recorder{}, 0
	if err := Do(context.Background(), clk, 0, failing(&calls)); !errors.Is(err, errFlaky) {
		t.Fatalf("err = %v, want errFlaky", err)
	}
	if calls != 1 || len(clk.waits) != 0 {
		t.Fatalf("%d attempts and %d waits, want 1 and 0", calls, len(clk.waits))
	}
}

func TestCancelDuringWait(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	calls := 0
	err := Do(ctx, never{}, 3, func() (time.Duration, bool, error) {
		calls++
		cancel() // the context dies while Do waits to retry
		return 0, true, errFlaky
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !errors.Is(err, errFlaky) {
		t.Fatalf("err = %v, want the last attempt's error still reachable", err)
	}
	if calls != 1 {
		t.Fatalf("%d attempts, want 1", calls)
	}
}

func TestRetriesDefaults(t *testing.T) {
	for _, tc := range []struct{ in, want int }{{0, DefaultRetries}, {-1, 0}, {-7, 0}, {1, 1}, {5, 5}} {
		if got := Retries(tc.in); got != tc.want {
			t.Errorf("Retries(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}
