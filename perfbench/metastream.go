package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"osprey/internal/aero"
	"osprey/internal/globus"
	"osprey/internal/wal"
)

// meta-stream: the AERO metadata service over loopback HTTP against a
// WAL-backed store, with bearer auth for one tenant and quotas set above
// the offered rate. One keep-alive connection sends an open-loop mix at a
// fixed rate; a second connection holds one SSE watch that receives every
// version update.

const (
	// metaRate is the offered load. Measured on a 2-vCPU host, p99 stays
	// near 10-25 ms at 200 req/s, while 400 req/s is past the knee.
	metaRate = 200
	// metaLatencyLimit is the service's latency objective at p99.
	metaLatencyLimit = 50 * time.Millisecond
	metaTenant       = "tenant-a"
	// watchBuffer bounds the SSE subscriber's queue. It is larger than the
	// number of appends a stalled second can produce, so a drop means the
	// watch path fell behind by more than that.
	watchBuffer = 4096
)

// metaStack is the meta-stream deployment.
type metaStack struct {
	log   *wal.Log
	store *aero.Store
	srv   *aero.Server
	hs    *http.Server
	base  string
	token string
	// client holds the single keep-alive request connection.
	client *http.Client
	items  []string // data UUIDs, indexed by metaOp.Item
}

// metaArchive is how many records of another tenant the log a deployment
// boots from already holds, beside the seeded items. Set-up is a server
// restart: the log is replayed before the server starts.
const metaArchive = 2000

// seedMetaHistory writes the log every meta-stream deployment boots from:
// the working tenant's items, one analysis flow and a provenance chain
// over them, and an archive tenant's versioned records. It returns the
// working items' UUIDs.
func seedMetaHistory(dir string) ([]string, error) {
	l, err := wal.Open(dir, walOptions("wal.aero"))
	if err != nil {
		return nil, err
	}
	defer l.Close()
	store, err := aero.OpenStore(l)
	if err != nil {
		return nil, err
	}
	view := store.Tenant(metaTenant)
	var items []string
	for i := 0; i < metaItems; i++ {
		rec, err := view.CreateData(fmt.Sprintf("item-%02d", i), "")
		if err != nil {
			return nil, err
		}
		items = append(items, rec.UUID)
	}
	flow, err := view.CreateFlow(aero.FlowRecord{
		Name: "derive", Kind: aero.AnalysisKind, InputUUIDs: items[:1], OutputUUIDs: items[1:2],
	})
	if err != nil {
		return nil, err
	}
	for i := 1; i < metaItems; i++ {
		edge := aero.ProvenanceEdge{FlowID: flow.ID, InputUUID: items[i-1], InputVersion: 1, OutputUUID: items[i], OutputVersion: 1}
		if err := view.AddProvenance(edge); err != nil {
			return nil, err
		}
	}
	archive := store.Tenant("archive")
	for i := 0; i < metaArchive; i++ {
		rec, err := archive.CreateData(fmt.Sprintf("archived-%05d", i), "")
		if err != nil {
			return nil, err
		}
		if _, err := archive.AppendVersion(rec.UUID, aero.Version{Checksum: rec.UUID, Size: 1024, Endpoint: "eagle", Collection: "osprey", Path: rec.Name}); err != nil {
			return nil, err
		}
	}
	return items, l.Close()
}

// openMetaStack boots a deployment from the log in dir, which
// seedMetaHistory wrote. Without loopback, requests go straight to the
// handler.
func openMetaStack(dir string, loopback bool, items []string) (*metaStack, error) {
	s := &metaStack{items: items}
	var err error
	if s.log, err = wal.Open(dir, walOptions("wal.aero")); err != nil {
		return nil, err
	}
	if s.store, err = aero.OpenStore(s.log); err != nil {
		s.log.Close()
		return nil, err
	}
	auth := globus.NewAuth()
	s.token = auth.Issue(metaTenant, 0, globus.ScopeAero).ID
	s.srv = aero.NewServer(s.store)
	s.srv.SetAuth(auth)
	q := aero.NewQuotas()
	above := aero.QuotaLimit{Rate: 10 * metaRate, Burst: 10 * metaRate}
	q.SetLimit(aero.QuotaIngest, above)
	q.SetLimit(aero.QuotaAnalysis, above)
	s.srv.SetQuotas(q)
	if loopback {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			s.close()
			return nil, err
		}
		s.hs = &http.Server{Handler: s.srv}
		go s.hs.Serve(ln)
		s.base = "http://" + ln.Addr().String()
		s.client = &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}}
	}
	return s, nil
}

// doer sends one request and returns its status and body; the handler
// rung and the loopback rung differ only in their doer.
type doer func(req *http.Request) (int, []byte, error)

// httpDoer is the loopback doer, or the in-process handler doer when the
// stack has no listener.
func (s *metaStack) httpDoer() doer {
	if s.client == nil {
		return func(req *http.Request) (int, []byte, error) {
			rec := httptest.NewRecorder()
			s.srv.ServeHTTP(rec, req)
			return rec.Code, rec.Body.Bytes(), nil
		}
	}
	return func(req *http.Request) (int, []byte, error) {
		resp, err := s.client.Do(req)
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		return resp.StatusCode, body, err
	}
}

func (s *metaStack) request(method, path string, body any) (*http.Request, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(b)
	}
	base := s.base
	if base == "" {
		base = "http://aero"
	}
	req, err := http.NewRequest(method, base+path, rd)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Authorization", "Bearer "+s.token)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return req, nil
}

// call sends one request and decodes a 2xx JSON answer into out.
func (s *metaStack) call(do doer, method, path string, body, out any) error {
	req, err := s.request(method, path, body)
	if err != nil {
		return err
	}
	code, b, err := do(req)
	if err != nil {
		return err
	}
	if code/100 != 2 {
		return fmt.Errorf("%s %s: status %d: %s", method, path, code, strings.TrimSpace(string(b)))
	}
	if out != nil {
		return json.Unmarshal(b, out)
	}
	return nil
}

// ack is what an acknowledged append returned.
type ack struct {
	item     int
	num      int
	checksum string
}

// version is the metadata an append records: where the new bytes live,
// never the bytes.
func (op metaOp) version() aero.Version {
	return aero.Version{Checksum: op.Checksum, Size: op.Size, Endpoint: "eagle", Collection: "osprey", Path: op.Checksum}
}

// exec runs one plan op through the HTTP API.
func (s *metaStack) exec(do doer, op metaOp) (ack, error) {
	uuid := s.items[op.Item]
	switch op.Kind {
	case opAppend:
		var rec aero.DataRecord
		if err := s.call(do, http.MethodPost, "/data/"+uuid+"/versions", op.version(), &rec); err != nil {
			return ack{}, err
		}
		latest := rec.Latest()
		if latest == nil || latest.Checksum != op.Checksum {
			return ack{}, errors.New("append acknowledged without its version")
		}
		return ack{item: op.Item, num: latest.Num, checksum: op.Checksum}, nil
	case opGet:
		var rec aero.DataRecord
		return ack{}, s.call(do, http.MethodGet, "/data/"+uuid, nil, &rec)
	case opProvenance:
		var edges []aero.ProvenanceEdge
		return ack{}, s.call(do, http.MethodGet, "/data/"+uuid+"/provenance", nil, &edges)
	default:
		var recs []aero.DataRecord
		return ack{}, s.call(do, http.MethodGet, "/data", nil, &recs)
	}
}

// execStore runs one plan op directly against the store: the bottom rung
// of the AERO ladder.
func (s *metaStack) execStore(op metaOp) error {
	view := s.store.Tenant(metaTenant)
	uuid := s.items[op.Item]
	var err error
	switch op.Kind {
	case opAppend:
		_, err = view.AppendVersion(uuid, op.version())
	case opGet:
		_, err = view.GetData(uuid)
	case opProvenance:
		_, err = view.Provenance(uuid)
	default:
		_, err = view.ListData()
	}
	return err
}

func (s *metaStack) close() error {
	if s.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		_ = s.hs.Shutdown(ctx)
		cancel()
	}
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
	return s.log.Close()
}

// sseWatch is the one SSE subscriber, on its own connection.
type sseWatch struct {
	cancel context.CancelFunc
	done   chan struct{}

	mu       sync.Mutex
	recv     map[string]time.Time // uuid/version -> frame arrival
	seqs     map[int64]bool
	dups     int
	dropped  int64
	received int
	err      error
}

func openWatch(s *metaStack) (*sseWatch, error) {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, fmt.Sprintf("%s/watch?buffer=%d", s.base, watchBuffer), nil)
	if err != nil {
		cancel()
		return nil, err
	}
	req.Header.Set("Accept", "text/event-stream")
	req.Header.Set("Authorization", "Bearer "+s.token)
	hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, DisableCompression: true}}
	resp, err := hc.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("watch: status %d", resp.StatusCode)
	}
	w := &sseWatch{cancel: cancel, done: make(chan struct{}), recv: map[string]time.Time{}, seqs: map[int64]bool{}}
	ready := make(chan struct{})
	go w.read(resp.Body, ready)
	select {
	case <-ready:
		return w, nil
	case <-w.done:
		cancel()
		return nil, fmt.Errorf("watch closed before ready: %v", w.err)
	case <-time.After(5 * time.Second):
		w.stop()
		return nil, errors.New("watch: no ready frame")
	}
}

func versionKey(uuid string, num int) string { return fmt.Sprintf("%s/%d", uuid, num) }

func (w *sseWatch) read(body io.ReadCloser, ready chan struct{}) {
	defer close(w.done)
	defer body.Close()
	sc := bufio.NewScanner(body)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
			if event == "ready" && ready != nil {
				close(ready)
				ready = nil
			}
		case strings.HasPrefix(line, "data: ") && event == "update":
			now := time.Now()
			var u struct {
				UUID    string `json:"uuid"`
				Version int    `json:"version"`
				Seq     int64  `json:"seq"`
				Dropped int64  `json:"dropped"`
			}
			err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &u)
			w.mu.Lock()
			if err != nil && w.err == nil {
				w.err = err
			}
			w.received++
			if w.seqs[u.Seq] {
				w.dups++
			}
			w.seqs[u.Seq] = true
			w.recv[versionKey(u.UUID, u.Version)] = now
			if u.Dropped > w.dropped {
				w.dropped = u.Dropped
			}
			w.mu.Unlock()
		}
	}
}

// waitFor blocks until n update frames arrived or the timeout passed.
func (w *sseWatch) waitFor(n int, timeout time.Duration) {
	for deadline := time.Now().Add(timeout); time.Now().Before(deadline); {
		w.mu.Lock()
		got := w.received + int(w.dropped)
		w.mu.Unlock()
		if got >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

func (w *sseWatch) stop() {
	w.cancel()
	<-w.done
}

// metaRun is the record of one open-loop stream.
type metaRun struct {
	latencies []time.Duration // completion minus due time, every request
	lags      []time.Duration // send start minus due time
	appends   []ack
	appendDue map[string]time.Time // uuid/version -> due time
	sent      int64
	failed    int64
	start     time.Time
	end       time.Time
}

// streamMeta sends the plan open-loop at metaRate until stopAt. Each
// request is due at a fixed tick; a late request is sent as soon as the
// connection is free, and its latency counts from its due time.
func streamMeta(s *metaStack, plan *metaPlan, stopAt time.Time) *metaRun {
	run := &metaRun{appendDue: map[string]time.Time{}}
	do := s.httpDoer()
	interval := time.Second / metaRate
	run.start = time.Now()
	for i := 0; ; i++ {
		due := run.start.Add(time.Duration(i) * interval)
		if !due.Before(stopAt) {
			break
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		op := plan.next()
		sendAt := time.Now()
		a, err := s.exec(do, op)
		done := time.Now()
		run.sent++
		run.lags = append(run.lags, sendAt.Sub(due))
		run.latencies = append(run.latencies, done.Sub(due))
		run.end = done
		if err != nil {
			run.failed++
			continue
		}
		if op.Kind == opAppend {
			run.appends = append(run.appends, a)
			run.appendDue[versionKey(s.items[a.item], a.num)] = due
		}
	}
	return run
}

// verifyMeta checks that every acknowledged version reads back, and that
// the watch accounted for every published update exactly once.
func verifyMeta(o *outcome, s *metaStack, run *metaRun, w *sseWatch, published, droppedTotal int64) {
	o.attempted += run.sent
	o.failed += run.failed
	if run.failed > 0 {
		o.problem("meta-stream: %d of %d requests failed", run.failed, run.sent)
	}
	do := s.httpDoer()
	stored := map[string]string{}
	for i, uuid := range s.items {
		var rec aero.DataRecord
		if err := s.call(do, http.MethodGet, "/data/"+uuid, nil, &rec); err != nil {
			o.problem("meta-stream: read back item %d: %v", i, err)
			return
		}
		for _, v := range rec.Versions {
			stored[versionKey(uuid, v.Num)] = v.Checksum
		}
	}
	for _, a := range run.appends {
		if stored[versionKey(s.items[a.item], a.num)] != a.checksum {
			o.problem("meta-stream: acknowledged version %d of item %d does not read back", a.num, a.item)
			o.failed++
			return
		}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		o.problem("meta-stream: watch frame: %v", w.err)
	}
	if w.dups > 0 {
		o.problem("meta-stream: watch delivered %d duplicate updates", w.dups)
	}
	if int64(w.received)+w.dropped != published || w.dropped != droppedTotal {
		o.problem("meta-stream: watch delivered %d + dropped %d, store published %d (dropped %d)", w.received, w.dropped, published, droppedTotal)
	}
	if int64(len(run.appends)) != published {
		o.problem("meta-stream: %d acknowledged appends but %d published updates", len(run.appends), published)
	}
	o.failed += w.dropped
}

// watchLagsMS pairs each acknowledged append with its SSE frame.
func watchLagsMS(run *metaRun, w *sseWatch) []float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	var out []float64
	for k, due := range run.appendDue {
		if t, ok := w.recv[k]; ok {
			out = append(out, ms(t.Sub(due)))
		}
	}
	return out
}

// metaSession is one measured open-loop stream on a fresh deployment,
// fully checked.
type metaSession struct {
	run    *metaRun
	watch  *sseWatch
	delta  map[string]float64
	setups []float64     // set-up times, s
	cpu    time.Duration // process CPU time of the stream
	rss    float64       // peak resident set during the stream, MB
}

func runMetaSession(e *env, o *outcome, label string, seconds time.Duration, repeats int) (*metaSession, error) {
	dir := filepath.Join(e.workDir, label)
	items, err := seedMetaHistory(dir)
	if err != nil {
		return nil, err
	}
	s, setups, err := repeatSetup(repeats, func() (*metaStack, error) { return openMetaStack(dir, true, items) },
		func(s *metaStack) error { return s.close() })
	if err != nil {
		return nil, err
	}
	w, err := openWatch(s)
	if err != nil {
		s.close()
		return nil, err
	}
	win := openObsWindow()
	rss := startRSSSampler()
	cpu0 := cpuTime()
	run := streamMeta(s, newMetaPlan(e.seed), time.Now().Add(seconds))
	cpu := cpuTime() - cpu0
	peak := rss.stop()
	w.waitFor(len(run.appends), 5*time.Second)
	d := win.close()
	published := d.Counters["aero.watch.published"]
	verifyMeta(o, s, run, w, published, d.Counters["aero.watch.dropped"])
	w.stop()
	if err := s.close(); err != nil {
		o.problem("meta-stream: close: %v", err)
	}
	writes := float64(len(run.appends))
	return &metaSession{
		run: run, watch: w, setups: setups, cpu: cpu, rss: peak,
		delta: map[string]float64{
			"aero.http.request_p50_us":   d.Histograms["aero.http.request_seconds"].P50Seconds * 1e6,
			"aero.watch.published":       float64(published),
			"aero.watch.dropped":         float64(d.Counters["aero.watch.dropped"]),
			"wal.aero.appends_per_write": ratio(float64(d.Counters["wal.aero.appends"]), writes),
			"wal.aero.bytes_per_write":   ratio(float64(d.Counters["wal.aero.bytes"]), writes),
		},
	}, nil
}

func measureMetaStream(e *env) (*outcome, error) {
	o := newOutcome()
	sess, err := runMetaSession(e, o, "aero", e.seconds, setupRepeats)
	if err != nil {
		return nil, err
	}
	lat := durationsMS(sess.run.latencies)
	if p99 := quantile(lat, 0.99); p99 > ms(metaLatencyLimit) {
		fmt.Fprintf(e.log, "perfbench: meta-stream: p99 %.1f ms over the %v limit at %d req/s\n", p99, metaLatencyLimit, metaRate)
	}
	logMetric(e, "meta.latency_p50_ms", median(lat), "ms", len(lat))
	logMetric(e, "meta.latency_p99_ms", quantile(lat, 0.99), "ms", len(lat))
	lags := watchLagsMS(sess.run, sess.watch)
	logMetric(e, "watch.lag_p50_ms", median(lags), "ms", len(lags))
	logMetric(e, "watch.lag_p99_ms", quantile(lags, 0.99), "ms", len(lags))
	logMetric(e, "gen.lag_p99_ms", quantile(durationsMS(sess.run.lags), 0.99), "ms", len(sess.run.lags))
	o.endToEnd(sess.setups, lat, sess.cpu, sess.rss)
	return o, nil
}

// layersMetaStream is the AERO path: an untraced open-loop session for the
// tail, watch and generator numbers, then the ladder — direct Store calls,
// Server.ServeHTTP through a recorder, loopback HTTP — each replaying the
// same seeded ops closed-loop.
func layersMetaStream(e *env, own bool) (*outcome, error) {
	o := newOutcome()
	var probe *runtimeProbe
	if own {
		probe = startRuntimeProbe()
	}
	sess, err := runMetaSession(e, o, "aero-layers", e.seconds/2, 1)
	if err != nil {
		return nil, err
	}
	if own {
		for k, v := range probe.stop(sess.run.sent) {
			o.metrics[k] = v
		}
	}
	for k, v := range sess.delta {
		o.metrics[k] = v
	}
	o.metrics["meta.latency_p99_ms"] = quantile(durationsMS(sess.run.latencies), 0.99)
	o.metrics["gen.lag_p99_ms"] = quantile(durationsMS(sess.run.lags), 0.99)
	lags := watchLagsMS(sess.run, sess.watch)
	o.metrics["watch.lag_p50_ms"] = quantile(lags, 0.50)
	o.metrics["watch.lag_p99_ms"] = quantile(lags, 0.99)

	rung := e.seconds / 8
	loop, err := metaRung(e, o, "transport", true, 0, time.Now().Add(rung), nil)
	if err != nil {
		return nil, err
	}
	store, err := metaRung(e, o, "store", false, loop.ops, time.Now().Add(time.Hour), nil)
	if err != nil {
		return nil, err
	}
	handler, err := metaRung(e, o, "handler", false, loop.ops, time.Now().Add(time.Hour), nil)
	if err != nil {
		return nil, err
	}
	traced, err := metaRung(e, o, "transport-traced", true, loop.ops, time.Now().Add(time.Hour), e.tr)
	if err != nil {
		return nil, err
	}
	o.metrics["ladder.store_us_per_op"] = us(store.perOp)
	o.metrics["ladder.handler_us_per_op"] = us(handler.perOp - store.perOp)
	o.metrics["ladder.transport_us_per_op"] = us(loop.perOp - handler.perOp)
	if own {
		o.metrics["trace.overhead_pct"] = traced.overheadPct
	}
	return o, nil
}

// rungResult is one closed-loop replay: ops run, wall time per op and, for
// a traced replay, how much longer the traced ops took than the untraced.
type rungResult struct {
	ops         int64
	perOp       time.Duration
	overheadPct float64
}

// metaRung replays the plan closed-loop on a fresh deployment, for n ops
// or until stopAt when n is 0. The "store" rung calls the store directly;
// the others go through the handler, in process or over loopback. With a
// tracer, every other op runs with spans off, and the two halves are
// compared.
func metaRung(e *env, o *outcome, label string, loopback bool, n int64, stopAt time.Time, tr *tracer) (rungResult, error) {
	var res rungResult
	dir := filepath.Join(e.workDir, "ladder-"+label)
	items, err := seedMetaHistory(dir)
	if err != nil {
		return res, err
	}
	s, err := openMetaStack(dir, loopback, items)
	if err != nil {
		return res, err
	}
	defer s.close()
	if tr != nil {
		defer tr.paused.Store(false)
	}
	plan := newMetaPlan(e.seed)
	do := s.httpDoer()
	var spent [2]time.Duration // untraced, traced
	var count [2]int64
	seen := map[string]int{}
	start := time.Now()
	for (n == 0 && time.Now().Before(stopAt)) || (n > 0 && res.ops < n) {
		op := plan.next()
		// Alternate within each request kind, so both halves hold the
		// same mix of appends and reads.
		kind := 0
		if tr != nil && seen[op.Kind]%2 == 1 {
			kind = 1
		}
		seen[op.Kind]++
		tr.pause(kind == 0)
		t0 := time.Now()
		var err error
		if label == "store" {
			err = s.execStore(op)
		} else {
			sp := tr.start("meta.rung."+op.Kind, 0)
			_, err = s.exec(do, op)
			sp.end()
		}
		spent[kind] += time.Since(t0)
		count[kind]++
		res.ops++
		o.attempted++
		if err != nil {
			o.failed++
			o.problem("meta %s rung: %v", label, err)
			return res, nil
		}
	}
	if res.ops > 0 {
		res.perOp = time.Since(start) / time.Duration(res.ops)
	}
	if count[0] > 0 && count[1] > 0 {
		traced := float64(spent[1]) / float64(count[1])
		plain := float64(spent[0]) / float64(count[0])
		res.overheadPct = 100 * (traced/plain - 1)
	}
	return res, nil
}
