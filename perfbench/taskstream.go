package main

import (
	"context"
	"errors"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"osprey/internal/emews"
	"osprey/internal/wal"
)

// task-stream: the EMEWS substrate over real TCP against a WAL-backed
// task database. One driver connection submits closed-loop within a fixed
// in-flight window; one worker connection drains with pop_batch +
// finish_batch. Wire v2, DB apply, the WAL and the socket do all the work.

const (
	taskType = "bench"
	// taskWindow is the driver's in-flight bound: enough tasks queued that
	// the worker never idles on a round trip, few enough that turnaround
	// measures the substrate rather than a deep queue.
	taskWindow     = 32
	workerPopBatch = 4
	popWait        = 20 * time.Millisecond
	// Terminal tasks are pruned as the daemon's retention policy does, so
	// memory stays bounded over a run; the last taskRetention of tasks is
	// still in the database when the run ends and is checked record by
	// record. A short retention keeps the retained set, and so the heap,
	// small beside the program's own footprint whatever the task rate.
	pruneEvery    = 100 * time.Millisecond
	taskRetention = 100 * time.Millisecond
)

// popped is one claimed task, from any rung of the ladder.
type popped struct {
	id, epoch int64
	payload   string
	claim     *emews.Claim // in-process rungs only
}

// taskConn is one endpoint of the task path: the in-process DB, a wire
// client, or a routed shard-group client.
type taskConn interface {
	submit(payloads []string) ([]int64, error)
	pop(max int) ([]popped, error)
	finish(ps []popped, results []string) ([]error, error)
}

type dbConn struct{ db *emews.DB }

func (c dbConn) submit(payloads []string) ([]int64, error) {
	fs, err := c.db.SubmitBatch(taskType, 0, payloads)
	if err != nil {
		return nil, err
	}
	ids := make([]int64, len(fs))
	for i, f := range fs {
		ids[i] = f.TaskID
	}
	return ids, nil
}

func (c dbConn) pop(max int) ([]popped, error) {
	ctx, cancel := context.WithTimeout(context.Background(), popWait)
	defer cancel()
	cs, err := c.db.PopBatch(ctx, taskType, max)
	if errors.Is(err, context.DeadlineExceeded) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	out := make([]popped, len(cs))
	for i, cl := range cs {
		out[i] = popped{id: cl.Task.ID, epoch: cl.Task.Epoch, payload: cl.Task.Payload, claim: cl}
	}
	return out, nil
}

func (c dbConn) finish(ps []popped, results []string) ([]error, error) {
	errs := make([]error, len(ps))
	for i, p := range ps {
		errs[i] = p.claim.Complete(results[i])
	}
	return errs, nil
}

// wireClient is the batch surface emews.Client and emews.ShardedClient
// share.
type wireClient interface {
	SubmitBatch(taskType string, priority int, payloads []string, maxAttempts int) ([]int64, error)
	PopBatch(taskType string, max int, timeout time.Duration) ([]emews.RemoteTask, error)
	FinishBatch(ops []emews.FinishOp) ([]error, error)
}

type remoteConn struct{ c wireClient }

func (r remoteConn) submit(payloads []string) ([]int64, error) {
	return r.c.SubmitBatch(taskType, 0, payloads, 0)
}

func (r remoteConn) pop(max int) ([]popped, error) {
	ts, err := r.c.PopBatch(taskType, max, popWait)
	if err != nil {
		return nil, err
	}
	out := make([]popped, len(ts))
	for i, t := range ts {
		out[i] = popped{id: t.ID, epoch: t.Epoch, payload: t.Payload}
	}
	return out, nil
}

func (r remoteConn) finish(ps []popped, results []string) ([]error, error) {
	ops := make([]emews.FinishOp, len(ps))
	for i, p := range ps {
		ops[i] = emews.FinishOp{TaskID: p.id, Epoch: p.epoch, Result: results[i]}
	}
	return r.c.FinishBatch(ops)
}

// taskRun is the record of one stream, indexed by plan sequence number
// (the prefix of every payload): when each task's submit call started and
// how many of its finishes were accepted.
type taskRun struct {
	submitAt []time.Duration // since start
	failed   []bool          // the task's submit call failed
	finishes []uint8
	// turnarounds holds one entry, in ms, per first accepted finish.
	turnarounds  []float64
	completed    int64
	offered      int64
	submitFailed int64
	finishFailed int64
	stale        int64
	foreign      int64 // finished tasks whose payload names no submitted task
	// doneTraced and donePaused split a traced stream's completions
	// between the stretches with spans on and off.
	doneTraced, donePaused int64
	drained                bool
	start, end             time.Time
}

// perTask is the stream's wall time per completed task.
func (r *taskRun) perTask() time.Duration {
	if r.completed > 0 {
		return r.end.Sub(r.start) / time.Duration(r.completed)
	}
	return 0
}

// payloadSeq reads the plan sequence number a payload starts with.
func payloadSeq(payload string) (int64, bool) {
	i := strings.IndexByte(payload, '|')
	if i < 0 {
		return 0, false
	}
	seq, err := strconv.ParseInt(payload[:i], 10, 64)
	return seq, err == nil
}

// traceSlice is how long a traced stream keeps spans on, then off, in
// turn; the completions of the two kinds of stretch give the tracing
// overhead from one stream.
const traceSlice = 20 * time.Millisecond

// streamTasks runs the closed loop until stopAt or until maxTasks tasks
// were offered (maxTasks 0 = no bound), then drains the window. The
// driver and the worker each run on their own goroutine and connection.
func streamTasks(plan *taskPlan, driver, worker taskConn, stopAt time.Time, maxTasks int64, tr *tracer) *taskRun {
	run := &taskRun{start: time.Now()}
	sem := make(chan struct{}, taskWindow)
	var inFlight atomic.Int64
	stopWorker := make(chan struct{})
	var wg sync.WaitGroup
	var mu sync.Mutex // guards run between driver and worker

	if tr != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer tr.paused.Store(false)
			t := time.NewTicker(traceSlice)
			defer t.Stop()
			for {
				select {
				case <-stopWorker:
					return
				case <-t.C:
					tr.paused.Store(!tr.paused.Load())
				}
			}
		}()
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		results := make([]string, 0, workerPopBatch)
		for {
			select {
			case <-stopWorker:
				return
			default:
			}
			sp := tr.start("emews.client.pop_batch", 0)
			ps, err := worker.pop(workerPopBatch)
			sp.end()
			if err != nil || len(ps) == 0 {
				continue
			}
			results = results[:0]
			for _, p := range ps {
				results = append(results, taskResult(p.payload))
			}
			sp = tr.start("emews.client.finish_batch", 0)
			errs, berr := worker.finish(ps, results)
			sp.end()
			now := time.Now()
			mu.Lock()
			for i, p := range ps {
				switch {
				case berr != nil:
					run.finishFailed++
				case errs[i] == nil:
					seq, ok := payloadSeq(p.payload)
					if !ok || seq < 0 || seq >= int64(len(run.submitAt)) {
						run.foreign++
						continue
					}
					run.finishes[seq]++
					if run.finishes[seq] == 1 {
						run.completed++
						run.turnarounds = append(run.turnarounds, ms(now.Sub(run.start)-run.submitAt[seq]))
						run.end = now
						if tr != nil && tr.paused.Load() {
							run.donePaused++
						} else if tr != nil {
							run.doneTraced++
						}
					}
				case errors.Is(errs[i], emews.ErrStaleClaim):
					run.stale++
				default:
					run.finishFailed++
				}
			}
			mu.Unlock()
			for range ps {
				inFlight.Add(-1)
				<-sem
			}
		}
	}()

	for time.Now().Before(stopAt) && (maxTasks == 0 || run.offered < maxTasks) {
		batch := plan.next()
		if maxTasks > 0 && run.offered+int64(len(batch)) > maxTasks {
			batch = batch[:maxTasks-run.offered]
		}
		for range batch {
			sem <- struct{}{}
		}
		inFlight.Add(int64(len(batch)))
		first := run.offered
		run.offered += int64(len(batch))
		t0 := time.Since(run.start)
		mu.Lock()
		for range batch {
			run.submitAt = append(run.submitAt, t0)
			run.failed = append(run.failed, false)
			run.finishes = append(run.finishes, 0)
		}
		mu.Unlock()
		sp := tr.start("emews.client.submit_batch", 0)
		_, err := driver.submit(batch)
		sp.end()
		if err != nil {
			mu.Lock()
			for i := range batch {
				run.failed[first+int64(i)] = true
			}
			run.submitFailed += int64(len(batch))
			mu.Unlock()
			for range batch {
				inFlight.Add(-1)
				<-sem
			}
		}
	}
	for deadline := time.Now().Add(30 * time.Second); inFlight.Load() > 0 && time.Now().Before(deadline); {
		time.Sleep(200 * time.Microsecond)
	}
	close(stopWorker)
	wg.Wait()
	run.drained = inFlight.Load() == 0
	return run
}

// check verifies the exactly-once contract from both ends of the stream:
// every submitted task finished exactly once, and nothing else finished.
func (r *taskRun) check(o *outcome, label string) {
	if !r.drained {
		o.problem("%s: window did not drain: %d tasks still in flight", label, r.offered-r.submitFailed-r.completed)
	}
	for seq, n := range r.finishes {
		if want := !r.failed[seq]; (n == 1) != want || n > 1 {
			o.problem("%s: task of plan step %d finished %d times", label, seq, n)
			break
		}
	}
	if r.foreign > 0 {
		o.problem("%s: %d finished tasks were never submitted", label, r.foreign)
	}
	o.attempted += r.offered
	o.failed += r.submitFailed + r.finishFailed + r.stale + r.foreign
}

// startPruner runs the retention policy over dbs until the returned stop
// function is called; stop waits for the pruner to exit and returns its
// first error.
func startPruner(dbs ...*emews.DB) func() error {
	done := make(chan struct{})
	var firstErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(pruneEvery)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				for _, db := range dbs {
					if _, err := db.Prune(taskRetention); err != nil && firstErr == nil {
						firstErr = err
					}
				}
			}
		}
	}()
	return func() error {
		close(done)
		wg.Wait()
		return firstErr
	}
}

// checkStored verifies, record by record, the tasks still held by db:
// each is complete, and its stored result is the one computed from its
// own payload.
func checkStored(o *outcome, label string, dbs ...*emews.DB) {
	for _, db := range dbs {
		for _, t := range db.Dump() {
			if t.Status != emews.StatusComplete {
				o.problem("%s: task %d ended %v", label, t.ID, t.Status)
				return
			}
			if t.Result != taskResult(t.Payload) {
				o.problem("%s: task %d holds a result not computed from its payload", label, t.ID)
				return
			}
			if _, ok := payloadSeq(t.Payload); !ok {
				o.problem("%s: task %d payload lost its plan sequence number", label, t.ID)
				return
			}
		}
	}
}

// checkLedger verifies the database ledger after a drained run: every
// task submitted since base completed, and none is left queued or running.
func checkLedger(o *outcome, label string, st, base emews.Stats, r *taskRun) {
	want := int(r.offered - r.submitFailed)
	if st.Submitted-base.Submitted != want || st.Complete-base.Complete != want ||
		st.Queued != 0 || st.Running != 0 || st.Failed != base.Failed || st.Canceled != base.Canceled {
		o.problem("%s: ledger %+v (from %+v) does not balance %d submitted tasks", label, st, base, want)
	}
}

// taskStack is the task-stream deployment: WAL, database, TCP server and
// the two client connections.
type taskStack struct {
	dir            string
	log            *wal.Log
	db             *emews.DB
	srv            *emews.Server
	driver, worker *emews.Client
	// base is the ledger the database recovered from its log.
	base emews.Stats
}

func walOptions(name string) wal.Options {
	return wal.Options{Name: name, Policy: wal.SyncInterval, Logf: func(string, ...any) {}}
}

func openTaskStack(dir string) (*taskStack, error) {
	s := &taskStack{dir: dir}
	var err error
	if s.log, err = wal.Open(dir, walOptions("wal.emews")); err != nil {
		return nil, err
	}
	if s.db, err = emews.OpenDB(s.log); err != nil {
		s.log.Close()
		return nil, err
	}
	s.base = s.db.Stats()
	if s.srv, err = emews.Serve(s.db, "127.0.0.1:0"); err != nil {
		s.close()
		return nil, err
	}
	if s.driver, err = emews.Dial(s.srv.Addr(), emews.WithOpTimeout(10*time.Second)); err != nil {
		s.close()
		return nil, err
	}
	if s.worker, err = emews.Dial(s.srv.Addr(), emews.WithOpTimeout(10*time.Second)); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// close tears the stack down client-first, so the log it closes last
// holds the whole history.
func (s *taskStack) close() error {
	if s.driver != nil {
		s.driver.Close()
	}
	if s.worker != nil {
		s.worker.Close()
	}
	if s.srv != nil {
		s.srv.Close()
	}
	if s.db != nil {
		s.db.Close()
	}
	return s.log.Close()
}

// taskHistory is how many tasks the log a deployment boots from already
// holds. Set-up is a daemon restart: the log is opened and replayed
// before the server starts, so set-up time includes recovery.
const taskHistory = 2000

// seedTaskHistory writes that log: taskHistory tasks submitted, run to
// completion and pruned by the retention policy, then a clean close.
func seedTaskHistory(dir string, seed uint64) error {
	l, err := wal.Open(dir, walOptions("wal.emews"))
	if err != nil {
		return err
	}
	db, err := emews.OpenDB(l)
	if err != nil {
		l.Close()
		return err
	}
	plan := newTaskPlan(seed)
	for done := 0; done < taskHistory && err == nil; {
		var claims []*emews.Claim
		if _, err = db.SubmitBatch(taskType, 0, plan.next()); err == nil {
			claims, err = db.PopBatch(context.Background(), taskType, maxBatch)
		}
		for _, c := range claims {
			if err == nil {
				err = c.Complete(taskResult(c.Task.Payload))
			}
			done++
		}
	}
	if err == nil {
		_, err = db.Prune(0)
	}
	db.Close()
	if cerr := l.Close(); err == nil {
		err = cerr
	}
	return err
}

func measureTaskStream(e *env) (*outcome, error) {
	o := newOutcome()
	plan := newTaskPlan(e.seed)
	dir := filepath.Join(e.workDir, "emews")
	if err := seedTaskHistory(dir, e.seed); err != nil {
		return nil, err
	}
	stack, setups, err := repeatSetup(setupRepeats, func() (*taskStack, error) { return openTaskStack(dir) },
		func(s *taskStack) error { return s.close() })
	if err != nil {
		return nil, err
	}
	stopPruner := startPruner(stack.db)
	rss := startRSSSampler()
	cpu0 := cpuTime()
	run := streamTasks(plan, remoteConn{stack.driver}, remoteConn{stack.worker}, time.Now().Add(e.seconds), 0, nil)
	cpu := cpuTime() - cpu0
	peak := rss.stop()
	if err := stopPruner(); err != nil {
		o.problem("prune: %v", err)
	}
	verifyTaskStack(o, "task-stream", stack, run)

	n := len(run.turnarounds)
	logMetric(e, "task.throughput_per_s", float64(run.completed)/run.end.Sub(run.start).Seconds(), "1/s", n)
	logMetric(e, "task.turnaround_p50_ms", median(run.turnarounds), "ms", n)
	logMetric(e, "task.turnaround_p99_ms", quantile(run.turnarounds, 0.99), "ms", n)
	o.endToEnd(setups, run.turnarounds, cpu, peak)
	return o, nil
}

// verifyTaskStack runs every end-of-run check on a drained stack and
// closes it: exactly-once, the remote ledger, the retained records and
// the strict audit of the closed log.
func verifyTaskStack(o *outcome, label string, s *taskStack, run *taskRun) {
	run.check(o, label)
	if st, err := s.driver.RemoteStats(); err != nil {
		o.problem("%s: stats: %v", label, err)
	} else {
		checkLedger(o, label, st, s.base, run)
	}
	checkStored(o, label, s.db)
	if err := s.close(); err != nil {
		o.problem("%s: close: %v", label, err)
		return
	}
	audit, err := emews.AuditWAL(s.dir)
	switch {
	case err != nil:
		o.problem("%s: audit: %v", label, err)
	case !audit.Ok():
		o.problem("%s: WAL audit: %v", label, audit.Violations)
	case int64(audit.Submits-s.base.Submitted) != run.offered-run.submitFailed || audit.Finishes != audit.Submits:
		o.problem("%s: WAL holds %d submits and %d finishes for %d tasks after %d recovered", label, audit.Submits, audit.Finishes, run.offered-run.submitFailed, s.base.Submitted)
	}
}

// layersTaskStream is the task path ladder. Each rung replays the same
// seeded op sequence for the same number of tasks, and adjacent rungs
// differ by one layer: in-memory DB, + WAL, + loopback socket (the
// end-to-end rung), + 3-shard routing.
func layersTaskStream(e *env, own bool) (*outcome, error) {
	o := newOutcome()
	rung := e.seconds / 6

	// A short discarded stream first, so no rung pays for a cold heap and
	// fresh connections.
	if _, err := loopbackRung(e, o, "warmup", time.Now().Add(rung/2), 0, nil); err != nil {
		return nil, err
	}
	// The untraced loopback rung sets the task count every other rung
	// replays, and is the base of the tracing overhead.
	var probe *runtimeProbe
	if own {
		probe = startRuntimeProbe()
	}
	base, err := loopbackRung(e, o, "loopback", time.Now().Add(rung), 0, nil)
	if err != nil {
		return nil, err
	}
	n := base.offered
	if own {
		for k, v := range probe.stop(base.completed) {
			o.metrics[k] = v
		}
	}
	o.metrics["task.turnaround_p99_ms"] = quantile(base.turnarounds, 0.99)
	o.metrics["task.throughput_per_s"] = float64(base.completed) / base.end.Sub(base.start).Seconds()

	// In-memory and WAL-backed databases driven in process.
	mem := emews.NewDB()
	memRun := replayRung(e, o, "db", mem, n)
	mem.Close()
	dir := filepath.Join(e.workDir, "ladder-wal")
	l, err := wal.Open(dir, walOptions("wal.emews"))
	if err != nil {
		return nil, err
	}
	wdb, err := emews.OpenDB(l)
	if err != nil {
		l.Close()
		return nil, err
	}
	walRun := replayRung(e, o, "wal", wdb, n)
	wdb.Close()
	if err := l.Close(); err != nil {
		return nil, err
	}

	shardRun, err := shardRung(e, o, n)
	if err != nil {
		return nil, err
	}

	// The traced loopback rung: spans around every client call, obs deltas
	// of the substrate's own counters.
	win := openObsWindow()
	traced, err := loopbackRung(e, o, "loopback-traced", time.Now().Add(time.Hour), n, e.tr)
	if err != nil {
		return nil, err
	}
	d := win.close()

	db := memRun.perTask()
	o.metrics["ladder.db_us_per_task"] = us(db)
	o.metrics["ladder.wal_us_per_task"] = us(walRun.perTask() - db)
	o.metrics["ladder.socket_us_per_task"] = us(base.perTask() - walRun.perTask())
	o.metrics["ladder.routing_us_per_task"] = us(shardRun.perTask() - base.perTask())
	for _, name := range []string{"submit_batch", "pop_batch", "finish_batch"} {
		o.metrics["emews.client."+name+"_p50_us"] = e.tr.p50us("emews.client." + name)
	}
	o.metrics["emews.net.request_p50_us"] = d.Histograms["emews.net.request_seconds"].P50Seconds * 1e6
	o.metrics["emews.pop.wait_p99_ms"] = d.Histograms["emews.pop.wait_seconds"].P99Seconds * 1e3
	o.metrics["emews.tasks.stale_rejected"] = float64(d.Counters["emews.tasks.stale_rejected"])
	o.metrics["emews.tasks.requeued"] = float64(d.Counters["emews.tasks.requeued"])
	done := float64(traced.completed)
	o.metrics["wal.emews.appends_per_task"] = ratio(float64(d.Counters["wal.emews.appends"]), done)
	o.metrics["wal.emews.bytes_per_task"] = ratio(float64(d.Counters["wal.emews.bytes"]), done)
	o.metrics["wal.emews.fsyncs"] = float64(d.Counters["wal.emews.fsyncs"])
	if own {
		o.metrics["trace.overhead_pct"] = 100 * (ratio(float64(traced.donePaused), float64(traced.doneTraced)) - 1)
	}
	return o, nil
}

// loopbackRung runs the end-to-end deployment once, fully checked.
func loopbackRung(e *env, o *outcome, label string, stopAt time.Time, maxTasks int64, tr *tracer) (*taskRun, error) {
	stack, err := openTaskStack(filepath.Join(e.workDir, "ladder-"+label))
	if err != nil {
		return nil, err
	}
	stopPruner := startPruner(stack.db)
	run := streamTasks(newTaskPlan(e.seed), remoteConn{stack.driver}, remoteConn{stack.worker}, stopAt, maxTasks, tr)
	if err := stopPruner(); err != nil {
		o.problem("%s: prune: %v", label, err)
	}
	verifyTaskStack(o, label, stack, run)
	return run, nil
}

// replayRung drives db in process with the plan's first n tasks.
func replayRung(e *env, o *outcome, label string, db *emews.DB, n int64) *taskRun {
	stopPruner := startPruner(db)
	run := streamTasks(newTaskPlan(e.seed), dbConn{db}, dbConn{db}, time.Now().Add(time.Hour), n, nil)
	if err := stopPruner(); err != nil {
		o.problem("%s: prune: %v", label, err)
	}
	run.check(o, label)
	checkLedger(o, label, db.Stats(), emews.Stats{}, run)
	checkStored(o, label, db)
	return run
}

// shardRung routes the plan's first n tasks through a 3-shard group of
// WAL-backed databases, one routed client per side.
func shardRung(e *env, o *outcome, n int64) (*taskRun, error) {
	base := filepath.Join(e.workDir, "ladder-shards")
	g, err := emews.OpenShardGroup(base, 3, nil, walOptions("wal.emews"))
	if err != nil {
		return nil, err
	}
	defer g.Close()
	driver, err := emews.DialShardGroup(g.Addrs(), emews.WithOpTimeout(10*time.Second))
	if err != nil {
		return nil, err
	}
	defer driver.Close()
	worker, err := emews.DialShardGroup(g.Addrs(), emews.WithOpTimeout(10*time.Second))
	if err != nil {
		return nil, err
	}
	defer worker.Close()
	dbs := make([]*emews.DB, g.Shards())
	for i := range dbs {
		dbs[i] = g.DB(i)
	}
	stopPruner := startPruner(dbs...)
	run := streamTasks(newTaskPlan(e.seed), remoteConn{driver}, remoteConn{worker}, time.Now().Add(time.Hour), n, nil)
	if err := stopPruner(); err != nil {
		o.problem("shards: prune: %v", err)
	}
	run.check(o, "shards")
	if st, err := driver.RemoteStats(); err != nil {
		o.problem("shards: stats: %v", err)
	} else {
		checkLedger(o, "shards", st, emews.Stats{}, run)
	}
	checkStored(o, "shards", dbs...)
	return run, nil
}
