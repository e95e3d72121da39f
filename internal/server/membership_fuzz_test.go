package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"progqoi/internal/storage"
)

// FuzzClusterAnnouncement drives the membership routes with fuzzed
// bodies. Join, heartbeat and leave carry no credential, so any host that
// reaches a node may send them. Each input is a script of up to 16 lines;
// a line's first byte picks the route ('h' heartbeat, 'l' leave, anything
// else join) and the rest is the body, sent through ServeHTTP to a fresh
// node advertised as http://self:9123. The oracle, after every call:
//
//   - nothing panics, and the status is 200, 400 or 409;
//   - GET /v1/cluster answers 200 with a ClusterInfo that decodes;
//   - the epoch never decreases;
//   - the node's own address is never listed as a peer;
//   - every member address is a fixed point of normalizeNodeURL and has
//     no query, fragment or userinfo.
//
// The committed corpus (testdata/fuzz) seeds it with real announcement
// bodies as json.Marshal writes them.
func FuzzClusterAnnouncement(f *testing.F) {
	const self = "http://self:9123"
	f.Fuzz(func(t *testing.T, script []byte) {
		srv, err := New(context.Background(), storage.NewMemStore(), Options{Advertise: self})
		if err != nil {
			t.Fatal(err)
		}
		var epoch int64
		for i, line := range bytes.SplitN(script, []byte("\n"), 16) {
			kind, body := "join", line
			if len(line) > 0 {
				switch line[0] {
				case 'h':
					kind, body = "heartbeat", line[1:]
				case 'l':
					kind, body = "leave", line[1:]
				default:
					body = line[1:]
				}
			}
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/cluster/"+kind, bytes.NewReader(body)))
			switch rec.Code {
			case http.StatusOK, http.StatusBadRequest, http.StatusConflict:
			default:
				t.Fatalf("call %d, %s %q: status %d", i, kind, body, rec.Code)
			}
			rec = httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/cluster", nil))
			var info ClusterInfo
			if err := json.Unmarshal(rec.Body.Bytes(), &info); rec.Code != http.StatusOK || err != nil {
				t.Fatalf("call %d: GET /v1/cluster %d: %v", i, rec.Code, err)
			}
			if info.Epoch < epoch {
				t.Fatalf("call %d, %s %q: epoch %d went back from %d", i, kind, body, info.Epoch, epoch)
			}
			epoch = info.Epoch
			if len(info.Members) == 0 || info.Members[0].Addr != self {
				t.Fatalf("call %d: members %+v do not start with this node", i, info.Members)
			}
			for _, p := range info.Peers {
				if p == self {
					t.Fatalf("call %d, %s %q: own address listed in peers %v", i, kind, body, info.Peers)
				}
			}
			for _, m := range info.Members[1:] {
				if m.Addr == self {
					t.Fatalf("call %d, %s %q: own address listed as a peer member", i, kind, body)
				}
				norm, err := normalizeNodeURL(m.Addr)
				if err != nil || norm != m.Addr {
					t.Fatalf("call %d: member %q normalizes to %q, %v", i, m.Addr, norm, err)
				}
				u, err := url.Parse(m.Addr)
				if err != nil || u.RawQuery != "" || u.ForceQuery || u.Fragment != "" || u.User != nil {
					t.Fatalf("call %d: member %q has a query, fragment or userinfo", i, m.Addr)
				}
			}
		}
	})
}
