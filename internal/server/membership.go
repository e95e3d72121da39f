// Membership: the elastic side of the cluster. A static cluster (PR 4)
// froze its topology at startup — /v1/cluster reported whatever -peers
// said, and adding, draining, or restarting a node meant restarting every
// client. This file makes /v1/cluster live state: nodes announce
// themselves to seed peers on boot (POST /v1/cluster/join), heartbeat
// with a generation counter (POST /v1/cluster/heartbeat), are marked
// suspect and then removed after missed heartbeats, and leave cleanly
// (POST /v1/cluster/leave) or drain gracefully (POST /v1/cluster/drain,
// admin-gated like reload).
//
// The state machine per member is alive → suspect → removed, with two
// recovery edges: a suspect member's next heartbeat returns it to alive
// (a falsely suspected node rejoins by doing nothing special), and a
// restarted node re-joins under a higher generation, which replaces its
// previous incarnation outright. Generations order incarnations of the
// same address: announcements carrying a generation below the recorded
// one are rejected with 409 so a slow, stale duplicate can never undo a
// restart. Every membership change bumps the node's epoch; clients use
// the epoch-numbered view to re-resolve topology mid-session.
//
// Drain is the graceful exit: a draining node stops accepting new
// sessions (index and meta return 503) but keeps serving fragment reads
// so in-flight retrievals finish, keeps heartbeating with state
// "draining" so peers advertise it as non-routable, and deregisters via
// /v1/cluster/leave on shutdown.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Membership states reported in ClusterInfo.Members.
const (
	// MemberAlive is a node heartbeating on schedule; clients route to it.
	MemberAlive = "alive"
	// MemberSuspect is a node that missed heartbeats for SuspectAfter;
	// clients stop routing to it, but its next heartbeat restores alive.
	MemberSuspect = "suspect"
	// MemberDraining is a node finishing in-flight work before leaving;
	// clients stop opening sessions against it.
	MemberDraining = "draining"
)

// Membership timing defaults, applied when the corresponding Options
// fields are zero.
const (
	// DefaultHeartbeatInterval is how often a node announces itself to
	// every peer it knows.
	DefaultHeartbeatInterval = time.Second
	// DefaultSuspectMultiple × HeartbeatInterval of silence marks a
	// member suspect.
	DefaultSuspectMultiple = 3
	// DefaultRemoveMultiple × HeartbeatInterval of silence removes a
	// member from the table entirely.
	DefaultRemoveMultiple = 10
)

// MemberInfo is one row of ClusterInfo.Members: a node's advertised base
// URL, the generation of its current incarnation, and its membership
// state.
type MemberInfo struct {
	Addr       string `json:"addr"`
	Generation int64  `json:"generation"`
	State      string `json:"state"`
}

// announcement is the request body of /v1/cluster/{join,heartbeat,leave}:
// the sender's advertised address, the generation of its current
// incarnation, and (for heartbeats) its self-reported state — "alive" or
// "draining"; nodes never claim "suspect" about themselves.
type announcement struct {
	Addr       string `json:"addr"`
	Generation int64  `json:"generation"`
	State      string `json:"state,omitempty"`
}

// member is one peer's row in the membership table. Fields are guarded
// by the owning membership's mu.
type member struct {
	addr     string
	gen      int64
	state    string
	lastSeen time.Time
}

// membership is a node's live view of the cluster: itself plus every
// peer it has heard from (directly or through a peer's merged view),
// each with the generation of its current incarnation and a liveness
// state driven by heartbeat arrival times. All state transitions bump
// epoch, the version number clients key their topology views on.
type membership struct {
	hbInterval   time.Duration
	suspectAfter time.Duration
	removeAfter  time.Duration

	mu       sync.Mutex
	self     string             // guarded by mu; this node's advertised base URL ("" until set)
	gen      int64              // guarded by mu; this node's incarnation
	epoch    int64              // guarded by mu; bumped on every membership change
	draining bool               // guarded by mu
	members  map[string]*member // guarded by mu; peers by advertised URL, never self

	suspects   atomic.Int64 // alive→suspect transitions
	drains     atomic.Int64 // drain transitions acknowledged
	heartbeats atomic.Int64 // heartbeats received from peers
}

// newMembership builds the table from Options, applying the timing
// defaults. The zero table is a solo cluster of the advertised node.
func newMembership(opt Options) *membership {
	hb := opt.HeartbeatInterval
	if hb <= 0 {
		hb = DefaultHeartbeatInterval
	}
	sa := opt.SuspectAfter
	if sa <= 0 {
		sa = DefaultSuspectMultiple * hb
	}
	ra := opt.RemoveAfter
	if ra <= 0 {
		ra = DefaultRemoveMultiple * hb
	}
	if ra < sa {
		ra = sa
	}
	gen := opt.Generation
	if gen <= 0 {
		gen = 1
	}
	return &membership{
		hbInterval:   hb,
		suspectAfter: sa,
		removeAfter:  ra,
		self:         opt.Advertise,
		gen:          gen,
		epoch:        1,
		members:      map[string]*member{},
	}
}

// normalizeNodeURL validates a node's advertised base URL — absolute
// http(s) with a host — and trims the trailing slash so the same node
// never registers twice under spelling variants. Clients append route
// paths to the base, so a query, fragment or userinfo part is refused: on
// http://h:1?x the routes would land in the query and every fetch would
// 404. So is any base that does not print back as itself, which keeps
// the result a fixed point: normalizing it again changes nothing.
func normalizeNodeURL(raw string) (string, error) {
	base := strings.TrimRight(strings.TrimSpace(raw), "/")
	u, err := url.Parse(base)
	if err != nil {
		return "", fmt.Errorf("server: node URL %q: %w", raw, err)
	}
	if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return "", fmt.Errorf("server: node URL %q must be absolute http(s)", raw)
	}
	if strings.ContainsAny(base, "?#") || u.User != nil || u.String() != base {
		return "", fmt.Errorf("server: node URL %q must be a plain base URL: no query, fragment, userinfo or escapable characters", raw)
	}
	return base, nil
}

// setSelf records this node's advertised URL (StartMembership learns it
// later than New does for httptest-hosted servers).
func (m *membership) setSelf(addr string) {
	m.mu.Lock()
	m.self = addr
	m.mu.Unlock()
}

func (m *membership) selfAddr() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.self
}

func (m *membership) generation() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.gen
}

func (m *membership) isSelf(addr string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.self != "" && addr == m.self
}

// selfState is what this node claims about itself in announcements.
func (m *membership) selfState() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining {
		return MemberDraining
	}
	return MemberAlive
}

// observe records a first-party announcement (join or heartbeat) from
// addr. It reports false when the announcement is stale — its generation
// is below the recorded incarnation — so a delayed duplicate can never
// roll back a restart. A fresh generation replaces the incarnation; an
// equal one refreshes liveness and adopts the sender's self-reported
// state, which is how a falsely suspected node returns to alive.
func (m *membership) observe(addr string, gen int64, state string, now time.Time) bool {
	if state == "" {
		state = MemberAlive
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if addr == m.self {
		return true
	}
	mem := m.members[addr]
	if mem == nil {
		m.members[addr] = &member{addr: addr, gen: gen, state: state, lastSeen: now}
		m.epoch++
		return true
	}
	if gen < mem.gen {
		return false
	}
	if gen > mem.gen || mem.state != state {
		m.epoch++
	}
	mem.gen, mem.state, mem.lastSeen = gen, state, now
	return true
}

// learn merges a peer's view (the ClusterInfo a join or heartbeat
// returned) into the table: unknown members are added and newer
// incarnations adopted, but equal-generation hearsay never refreshes
// liveness — only a member's own heartbeats keep it out of suspicion —
// and third-party suspicion is never adopted, because each node's
// sweeper judges silence against its own clock.
func (m *membership) learn(infos []MemberInfo, now time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, mi := range infos {
		addr, err := normalizeNodeURL(mi.Addr)
		if err != nil || addr == m.self || mi.Generation <= 0 {
			continue
		}
		if mi.State != MemberAlive && mi.State != MemberDraining {
			continue
		}
		mem := m.members[addr]
		if mem == nil {
			m.members[addr] = &member{addr: addr, gen: mi.Generation, state: mi.State, lastSeen: now}
			m.epoch++
			continue
		}
		if mi.Generation > mem.gen {
			mem.gen, mem.state, mem.lastSeen = mi.Generation, mi.State, now
			m.epoch++
		}
	}
}

// remove deletes addr from the table (a clean leave). It reports false
// when the request is stale — a generation below the member's current
// incarnation must not remove the restarted node that superseded it.
// Removing an unknown member is a no-op success: leave is idempotent.
func (m *membership) remove(addr string, gen int64) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	mem := m.members[addr]
	if mem == nil {
		return true
	}
	if gen < mem.gen {
		return false
	}
	delete(m.members, addr)
	m.epoch++
	return true
}

// sweep advances the liveness state machine: members silent past
// suspectAfter turn suspect, members silent past removeAfter are removed
// outright. Returns the transitioned addresses (sorted) for logging.
func (m *membership) sweep(now time.Time) (suspected, removed []string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for addr, mem := range m.members {
		idle := now.Sub(mem.lastSeen)
		switch {
		case idle > m.removeAfter:
			delete(m.members, addr)
			removed = append(removed, addr)
			m.epoch++
		case mem.state == MemberAlive && idle > m.suspectAfter:
			mem.state = MemberSuspect
			suspected = append(suspected, addr)
			m.suspects.Add(1)
			m.epoch++
		}
	}
	sort.Strings(suspected)
	sort.Strings(removed)
	return suspected, removed
}

// setDraining marks this node draining, reporting whether this call was
// the transition (drain is idempotent; only the first call counts).
func (m *membership) setDraining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining {
		return false
	}
	m.draining = true
	m.epoch++
	m.drains.Add(1)
	return true
}

func (m *membership) isDraining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}

// targets returns every address worth announcing to: known members plus
// the configured seeds (so a node that booted before its seeds keeps
// trying them), minus itself, deduplicated and sorted.
func (m *membership) targets(seeds []string) []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	seen := map[string]bool{m.self: true}
	var out []string
	for addr := range m.members {
		if !seen[addr] {
			seen[addr] = true
			out = append(out, addr)
		}
	}
	for _, s := range seeds {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	sort.Strings(out)
	return out
}

// info renders the table as the /v1/cluster payload. Members lists this
// node first, then peers sorted by address. Peers stays the legacy flat
// list — the static -peers configuration unioned with every known member
// — so pre-elastic clients doing one-shot peer discovery keep finding
// the whole cluster.
func (m *membership) info(staticPeers []string) ClusterInfo {
	m.mu.Lock()
	defer m.mu.Unlock()
	info := ClusterInfo{Advertise: m.self, Epoch: m.epoch, Draining: m.draining, Peers: []string{}}
	if m.self != "" {
		st := MemberAlive
		if m.draining {
			st = MemberDraining
		}
		info.Members = append(info.Members, MemberInfo{Addr: m.self, Generation: m.gen, State: st})
	}
	addrs := make([]string, 0, len(m.members))
	for addr := range m.members {
		addrs = append(addrs, addr)
	}
	sort.Strings(addrs)
	for _, addr := range addrs {
		mem := m.members[addr]
		info.Members = append(info.Members, MemberInfo{Addr: addr, Generation: mem.gen, State: mem.state})
	}
	seen := map[string]bool{m.self: true}
	for _, p := range staticPeers {
		if !seen[p] {
			seen[p] = true
			info.Peers = append(info.Peers, p)
		}
	}
	// Only alive members reach the legacy Peers union: pre-elastic
	// clients route straight off Peers, so a suspect or draining node
	// listed there would keep taking traffic it cannot serve.
	for _, addr := range addrs {
		if m.members[addr].state != MemberAlive {
			continue
		}
		if !seen[addr] {
			seen[addr] = true
			info.Peers = append(info.Peers, addr)
		}
	}
	return info
}

// membershipMetrics is the point-in-time snapshot /metrics and Stats
// render.
type membershipMetrics struct {
	alive, suspect, draining int
	epoch                    int64
	suspects                 int64
	drains                   int64
	heartbeats               int64
}

func (m *membership) metrics() membershipMetrics {
	m.mu.Lock()
	mm := membershipMetrics{epoch: m.epoch}
	if m.self != "" {
		if m.draining {
			mm.draining++
		} else {
			mm.alive++
		}
	}
	for _, mem := range m.members {
		switch mem.state {
		case MemberSuspect:
			mm.suspect++
		case MemberDraining:
			mm.draining++
		default:
			mm.alive++
		}
	}
	m.mu.Unlock()
	mm.suspects = m.suspects.Load()
	mm.drains = m.drains.Load()
	mm.heartbeats = m.heartbeats.Load()
	return mm
}

// --- server integration -------------------------------------------------

// StartMembership turns on dynamic membership for this node: it records
// the advertised URL (known only after the listener binds, which is why
// this is not part of New), announces a join to every seed, and starts
// the heartbeat/sweep loop. Heartbeats go to every known member and
// every seed each HeartbeatInterval, so a node whose seeds were down at
// boot converges as soon as they answer. ctx cancels the loop; so does
// StopMembership.
func (s *Server) StartMembership(ctx context.Context, advertise string, seeds []string) error {
	addr, err := normalizeNodeURL(advertise)
	if err != nil {
		return fmt.Errorf("server: membership advertise: %w", err)
	}
	if !s.membStarted.CompareAndSwap(false, true) {
		return fmt.Errorf("server: membership already started")
	}
	s.memb.setSelf(addr)
	for _, p := range seeds {
		sp, err := normalizeNodeURL(p)
		if err != nil {
			return fmt.Errorf("server: membership seed: %w", err)
		}
		if sp != addr {
			s.membSeeds = append(s.membSeeds, sp)
		}
	}
	s.membHC = &http.Client{Timeout: s.announceTimeout()}
	s.announceAll(ctx, "join")
	s.membWG.Add(1)
	go s.membershipLoop(ctx)
	return nil
}

// StopMembership stops the heartbeat/sweep loop and waits for it. Safe
// to call even when StartMembership never ran, and more than once.
func (s *Server) StopMembership() {
	s.membStopOnce.Do(func() { close(s.membStop) })
	s.membWG.Wait()
}

// Drain marks this node draining: index and meta answer 503 so no new
// session can start, batched fragment fetches keep serving so in-flight
// retrievals finish, and heartbeats announce state "draining" so peers
// (and refreshing clients) route around it. Idempotent.
func (s *Server) Drain() {
	if s.memb.setDraining() && s.opts.Log != nil {
		s.opts.Log.Info("cluster drain: not accepting new sessions")
	}
}

// Draining reports whether Drain was called (directly or via the
// admin-gated POST /v1/cluster/drain).
func (s *Server) Draining() bool { return s.memb.isDraining() }

// LeaveCluster announces a clean departure to every known member and
// seed, so the node disappears from peer tables immediately instead of
// aging through suspect→removed. Best-effort: unreachable peers learn
// from their sweepers.
func (s *Server) LeaveCluster(ctx context.Context) {
	if s.membHC == nil {
		return
	}
	s.announceAll(ctx, "leave")
}

// announceTimeout bounds one announcement round trip: twice the
// heartbeat interval, clamped to [250ms, 2s], so one dead peer can never
// stall a heartbeat round past the suspicion window of the live ones.
func (s *Server) announceTimeout() time.Duration {
	d := 2 * s.memb.hbInterval
	if d < 250*time.Millisecond {
		d = 250 * time.Millisecond
	}
	if d > 2*time.Second {
		d = 2 * time.Second
	}
	return d
}

// announceAll sends one announcement of the given kind to every target
// concurrently and waits for the round to finish.
func (s *Server) announceAll(ctx context.Context, kind string) {
	var wg sync.WaitGroup
	for _, target := range s.memb.targets(s.membSeeds) {
		wg.Add(1)
		go func(target string) {
			defer wg.Done()
			s.announce(ctx, kind, target)
		}(target)
	}
	wg.Wait()
}

// announce POSTs one join/heartbeat/leave to target and merges the
// returned view into the local table (anti-entropy: every announcement
// round trip is also a topology exchange). Failures are logged at debug
// and otherwise ignored — the sweeper owns liveness judgments.
func (s *Server) announce(ctx context.Context, kind, target string) {
	body, _ := json.Marshal(announcement{
		Addr:       s.memb.selfAddr(),
		Generation: s.memb.generation(),
		State:      s.memb.selfState(),
	})
	rctx, cancel := context.WithTimeout(ctx, s.announceTimeout())
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodPost, target+"/v1/cluster/"+kind, bytes.NewReader(body))
	if err != nil {
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.membHC.Do(req)
	if err != nil {
		if s.opts.Log != nil {
			s.opts.Log.Debug("cluster announce failed",
				slog.String("kind", kind), slog.String("peer", target), slog.String("error", err.Error()))
		}
		return
	}
	data, rerr := io.ReadAll(resp.Body)
	resp.Body.Close() //nolint:errcheck
	if resp.StatusCode != http.StatusOK || rerr != nil {
		if s.opts.Log != nil {
			s.opts.Log.Debug("cluster announce rejected",
				slog.String("kind", kind), slog.String("peer", target), slog.Int("status", resp.StatusCode))
		}
		return
	}
	if kind == "leave" {
		return
	}
	var info ClusterInfo
	if err := json.Unmarshal(data, &info); err != nil {
		return
	}
	s.memb.learn(info.Members, time.Now())
}

// membershipLoop heartbeats and sweeps every HeartbeatInterval until the
// context dies or StopMembership is called.
func (s *Server) membershipLoop(ctx context.Context) {
	defer s.membWG.Done()
	t := time.NewTicker(s.memb.hbInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-s.membStop:
			return
		case <-t.C:
		}
		s.announceAll(ctx, "heartbeat")
		suspected, removed := s.memb.sweep(time.Now())
		if s.opts.Log != nil {
			for _, addr := range suspected {
				s.opts.Log.Warn("cluster member suspect", slog.String("member", addr))
			}
			for _, addr := range removed {
				s.opts.Log.Warn("cluster member removed", slog.String("member", addr))
			}
		}
	}
}

// --- handlers -----------------------------------------------------------

// decodeAnnouncement reads and validates a membership announcement body,
// writing the 400 itself on malformed input.
func (s *Server) decodeAnnouncement(w http.ResponseWriter, r *http.Request) (announcement, bool) {
	var a announcement
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBatchBody))
	if err != nil {
		http.Error(w, "request body too large or unreadable", http.StatusBadRequest)
		return a, false
	}
	if err := json.Unmarshal(body, &a); err != nil {
		http.Error(w, "bad announcement: "+err.Error(), http.StatusBadRequest)
		return a, false
	}
	addr, err := normalizeNodeURL(a.Addr)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return a, false
	}
	a.Addr = addr
	if a.Generation <= 0 {
		http.Error(w, "generation must be a positive incarnation counter", http.StatusBadRequest)
		return a, false
	}
	switch a.State {
	case "", MemberAlive, MemberDraining:
	default:
		http.Error(w, "state must be \"alive\" or \"draining\"", http.StatusBadRequest)
		return a, false
	}
	return a, true
}

// handleClusterJoin admits a node into the membership table and returns
// the full view so the joiner learns the cluster in one round trip. 409
// on a stale generation or on a duplicate of this node's own advertised
// address.
func (s *Server) handleClusterJoin(w http.ResponseWriter, r *http.Request) {
	a, ok := s.decodeAnnouncement(w, r)
	if !ok {
		return
	}
	if s.memb.isSelf(a.Addr) {
		http.Error(w, "duplicate advertise address: that URL is this node's own", http.StatusConflict)
		return
	}
	if !s.memb.observe(a.Addr, a.Generation, a.State, time.Now()) {
		http.Error(w, "stale generation: a newer incarnation of that address is registered", http.StatusConflict)
		return
	}
	if s.opts.Log != nil {
		s.opts.Log.Info("cluster join",
			slog.String("member", a.Addr), slog.Int64("generation", a.Generation))
	}
	b, _ := json.Marshal(s.memb.info(s.opts.Peers))
	writeBlob(w, b, "application/json")
}

// handleClusterHeartbeat refreshes a member's liveness. An unknown
// sender joins implicitly (heartbeat is join's idempotent steady state);
// a stale generation is rejected 409. The response is the full view, so
// every heartbeat doubles as anti-entropy.
func (s *Server) handleClusterHeartbeat(w http.ResponseWriter, r *http.Request) {
	a, ok := s.decodeAnnouncement(w, r)
	if !ok {
		return
	}
	if s.memb.isSelf(a.Addr) {
		http.Error(w, "duplicate advertise address: that URL is this node's own", http.StatusConflict)
		return
	}
	if !s.memb.observe(a.Addr, a.Generation, a.State, time.Now()) {
		http.Error(w, "stale generation: a newer incarnation of that address is registered", http.StatusConflict)
		return
	}
	s.memb.heartbeats.Add(1)
	b, _ := json.Marshal(s.memb.info(s.opts.Peers))
	writeBlob(w, b, "application/json")
}

// handleClusterLeave removes a member cleanly. Idempotent; 409 only when
// the leave is stale (a newer incarnation of the address is registered —
// the restarted node must not be unregistered by its predecessor's
// shutdown).
func (s *Server) handleClusterLeave(w http.ResponseWriter, r *http.Request) {
	a, ok := s.decodeAnnouncement(w, r)
	if !ok {
		return
	}
	if !s.memb.remove(a.Addr, a.Generation) {
		http.Error(w, "stale generation: a newer incarnation of that address is registered", http.StatusConflict)
		return
	}
	if s.opts.Log != nil {
		s.opts.Log.Info("cluster leave", slog.String("member", a.Addr))
	}
	b, _ := json.Marshal(s.memb.info(s.opts.Peers))
	writeBlob(w, b, "application/json")
}

// handleClusterDrain starts a graceful drain, admin-gated by requireAdmin
// exactly like reload.
func (s *Server) handleClusterDrain(w http.ResponseWriter, r *http.Request) {
	if !s.requireAdmin(w, r, "drain") {
		return
	}
	s.Drain()
	b, _ := json.Marshal(s.memb.info(s.opts.Peers))
	writeBlob(w, b, "application/json")
}
