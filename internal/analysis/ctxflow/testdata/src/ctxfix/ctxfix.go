// Package ctxfix exercises the end-to-end context contract: no fresh
// root contexts below main, no context-free HTTP constructors.
package ctxfix

import (
	"context"
	"net/http"
)

func fresh() context.Context {
	return context.Background() // want `detaches this code`
}

func todo() context.Context {
	return context.TODO() // want `detaches this code`
}

// nilDefault is the one blessed Background shape: a caller-supplied
// context is preserved whenever one exists.
func nilDefault(ctx context.Context) context.Context {
	if ctx == nil {
		ctx = context.Background() // ok: nil-context defaulting
	}
	return ctx
}

func wrongDefault(ctx context.Context) context.Context {
	if ctx != nil {
		ctx = context.Background() // want `detaches this code`
	}
	return ctx
}

func detach() context.Context {
	//progqoivet:allow ctxflow -- fixture: a documented background detach
	return context.Background()
}

func reasonless() context.Context {
	//progqoivet:allow ctxflow
	return context.Background() // want `detaches this code`
}

func requests(ctx context.Context, c *http.Client) {
	_, _ = http.Get("http://cluster.local/index")                       // want `NewRequestWithContext`
	_, _ = c.Get("http://cluster.local/index")                          // want `NewRequestWithContext`
	_, _ = http.NewRequest(http.MethodGet, "http://cluster.local", nil) // want `NewRequestWithContext`

	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://cluster.local", nil) // ok
	if err == nil {
		_, _ = c.Do(req) // ok: Do carries the request's context
	}
}
