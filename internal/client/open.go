package client

import (
	"context"
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

// Meta fetches the dataset's index and metadata blob and returns its
// variables, meta-only (fragment payloads absent, everything else
// resident), with the total fragment bytes the service stores for them.
// ctx scopes the two metadata fetches.
func (c *Client) Meta(ctx context.Context, dataset string) (vars []*core.Variable, stored int64, err error) {
	idx, err := c.Index(ctx, dataset)
	if err != nil {
		return nil, 0, err
	}
	blob, err := c.do(ctx, "GET", "/v1/d/"+dataset+"/meta", nil, "")
	if err != nil {
		return nil, 0, err
	}
	if vars, err = server.DecodeMeta(blob); err != nil {
		return nil, 0, err
	}
	if len(vars) != len(idx.Variables) {
		return nil, 0, fmt.Errorf("client: dataset %s: meta has %d variables, index %d", dataset, len(vars), len(idx.Variables))
	}
	for i, v := range vars {
		iv := idx.Variables[i]
		if v.Name != iv.Name {
			return nil, 0, fmt.Errorf("client: dataset %s: meta variable %q != index %q", dataset, v.Name, iv.Name)
		}
		if len(v.Ref.Fragments) != len(iv.FragmentSizes) {
			return nil, 0, fmt.Errorf("client: dataset %s: %s has %d fragments in meta, %d in index",
				dataset, v.Name, len(v.Ref.Fragments), len(iv.FragmentSizes))
		}
		stored += iv.TotalBytes
	}
	return vars, stored, nil
}
