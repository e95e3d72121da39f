package client

import (
	"context"
	"encoding/json"
	"fmt"

	"progqoi/internal/core"
	"progqoi/internal/server"
)

// Open dials baseURL; ctx scopes the one best-effort topology fetch
// Options.DiscoverPeers asks for.
func Open(ctx context.Context, baseURL string, opt Options) (*Client, error) {
	if opt.DiscoverPeers {
		// Ask the seed node for its topology and fold the routable nodes
		// (alive members on an elastic cluster, static peers otherwise)
		// into the endpoint set. Best-effort: a node without the route
		// (or an unreachable one — the configured endpoints may still
		// cover for it) is treated as advertising nothing.
		seed, err := New(baseURL, Options{
			HTTPClient: opt.HTTPClient,
			MaxRetries: opt.MaxRetries,
			CacheBytes: -1,
			Token:      opt.Token,
			clock:      opt.clock,
		})
		if err != nil {
			return nil, err
		}
		if info, err := seed.ClusterInfo(ctx); err == nil {
			opt.Endpoints = append(append([]string(nil), opt.Endpoints...), routableFrom(info, baseURL)...)
		}
		seed.Close()
	}
	return New(baseURL, opt)
}

// Dataset is one dataset of the fragment service as read at open: its
// variables meta-only (fragment payloads absent, everything else
// resident), the fragment bytes the service stores for them, and the
// index's fragment sizes every fetched payload is checked against. Fetch
// is its transport; it is safe for concurrent sessions.
type Dataset struct {
	Vars   []*core.Variable
	Stored int64

	c     *Client
	name  string
	sizes [][]int64 // sizes[v][fi]: fragment fi of Vars[v], from the index
}

// Dataset fetches the dataset's index and metadata blob; ctx scopes the
// two fetches.
func (c *Client) Dataset(ctx context.Context, name string) (*Dataset, error) {
	b, err := c.do(ctx, "GET", "/v1/d/"+name+"/index", nil, "")
	if err != nil {
		return nil, err
	}
	var idx server.Index
	if err := json.Unmarshal(b, &idx); err != nil {
		return nil, fmt.Errorf("client: index %s: %w", name, err)
	}
	blob, err := c.do(ctx, "GET", "/v1/d/"+name+"/meta", nil, "")
	if err != nil {
		return nil, err
	}
	vars, err := server.DecodeMeta(blob)
	if err != nil {
		return nil, err
	}
	if len(vars) != len(idx.Variables) {
		return nil, fmt.Errorf("client: dataset %s: meta has %d variables, index %d", name, len(vars), len(idx.Variables))
	}
	d := &Dataset{Vars: vars, c: c, name: name, sizes: make([][]int64, len(vars))}
	for i, v := range vars {
		iv := idx.Variables[i]
		if v.Name != iv.Name {
			return nil, fmt.Errorf("client: dataset %s: meta variable %q != index %q", name, v.Name, iv.Name)
		}
		if len(v.Ref.Fragments) != len(iv.FragmentSizes) {
			return nil, fmt.Errorf("client: dataset %s: %s has %d fragments in meta, %d in index",
				name, v.Name, len(v.Ref.Fragments), len(iv.FragmentSizes))
		}
		d.sizes[i] = iv.FragmentSizes
		d.Stored += iv.TotalBytes
	}
	return d, nil
}
