// Package emews implements the EMEWS model-exploration substrate of §3: a
// decoupled architecture built from a task database and a task API. Model
// exploration (ME) algorithms submit parameter-set tasks to the database
// and receive Futures; worker pools running on compute resources pop tasks,
// evaluate the model, and push results back. Submission "returns a Future,
// which encapsulates the asynchronous execution of the task" (§3.2), and it
// is exactly this decoupling that lets multiple algorithm instances be
// interleaved to keep a worker pool fully utilized.
//
// The database can be used in-process or served over TCP (see net.go),
// mirroring EMEWS's separation between ME processes and worker pools on
// different resources.
package emews

import (
	"container/heap"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"osprey/internal/wal"
)

// TaskStatus enumerates the task lifecycle.
type TaskStatus int

const (
	StatusQueued TaskStatus = iota
	StatusRunning
	StatusComplete
	StatusFailed
	StatusCanceled
)

func (s TaskStatus) String() string {
	switch s {
	case StatusQueued:
		return "queued"
	case StatusRunning:
		return "running"
	case StatusComplete:
		return "complete"
	case StatusFailed:
		return "failed"
	case StatusCanceled:
		return "canceled"
	default:
		return fmt.Sprintf("TaskStatus(%d)", int(s))
	}
}

// Task is one unit of work: an opaque payload (model input parameters,
// conventionally JSON) tagged with a type that selects the worker pool.
type Task struct {
	ID       int64
	Type     string
	Priority int // higher runs first; FIFO within a priority level
	Payload  string

	Status TaskStatus
	Result string
	ErrMsg string

	// Attempts counts pops; MaxAttempts > 1 enables automatic requeue on
	// failure (worker crashes, transient model errors).
	Attempts    int
	MaxAttempts int

	// Epoch is the attempt fencing token: it is incremented on every pop,
	// recorded in the Claim handed to the worker, and checked again when
	// the claim resolves. A claim whose lease expired — whose task was
	// requeued and possibly re-popped by another worker — carries a stale
	// epoch and can no longer overwrite the newer attempt's result.
	Epoch int64

	Submitted time.Time
	Started   time.Time
	Finished  time.Time
}

// Future is the submitter's handle to an asynchronous task evaluation.
type Future struct {
	TaskID int64
	db     *DB
	done   chan struct{}
}

// Done returns a channel closed when the task reaches a terminal state.
func (f *Future) Done() <-chan struct{} { return f.done }

// Result blocks until the task terminates (or ctx is canceled) and returns
// the result payload.
func (f *Future) Result(ctx context.Context) (string, error) {
	select {
	case <-f.done:
	case <-ctx.Done():
		return "", ctx.Err()
	}
	t, err := f.db.Get(f.TaskID)
	if err != nil {
		return "", err
	}
	switch t.Status {
	case StatusComplete:
		return t.Result, nil
	case StatusFailed:
		return "", fmt.Errorf("emews: task %d failed: %s", t.ID, t.ErrMsg)
	case StatusCanceled:
		return "", fmt.Errorf("emews: task %d canceled", t.ID)
	default:
		return "", fmt.Errorf("emews: task %d in unexpected state %v", t.ID, t.Status)
	}
}

// TryResult returns (result, err, true) if the task has terminated, or
// (_, _, false) if it is still pending — the non-blocking check each
// interleaved MUSIC instance performs before ceding control (§3.2).
func (f *Future) TryResult() (string, error, bool) {
	select {
	case <-f.done:
		res, err := f.Result(context.Background())
		return res, err, true
	default:
		return "", nil, false
	}
}

// Stats summarizes database occupancy.
type Stats struct {
	Queued, Running, Complete, Failed, Canceled int
	Submitted                                   int
}

// DB is the EMEWS task database. All methods are safe for concurrent use.
// Every mutation flows through a typed taskMutation record (see
// durable.go); when a wal.Backend is attached the record is persisted
// before it is applied, and crash recovery replays the same records
// through the same transition function.
type DB struct {
	mu     sync.Mutex
	cond   *sync.Cond
	closed bool
	nextID int64
	tasks  map[int64]*Task
	// queues[type] is a priority heap of queued task IDs.
	queues  map[string]*taskHeap
	futures map[int64]*Future
	stats   Stats
	// leaseTimeout, when positive, bounds how long a popped task may run
	// before ReapExpired reclaims it (see lease.go).
	leaseTimeout time.Duration
	backend      wal.Backend // nil = in-memory only (the default)
	wal          *wal.Log    // set by OpenDB; enables Compact
	// shardIndex/shardCount stride the ID sequence so a shard group's
	// databases allocate disjoint IDs (see ring.go). 0/1 (or 0/0) is the
	// unsharded default: IDs 1, 2, 3, …
	shardIndex int
	shardCount int
}

// NewDB creates an empty task database.
func NewDB() *DB {
	db := &DB{
		tasks:   map[int64]*Task{},
		queues:  map[string]*taskHeap{},
		futures: map[int64]*Future{},
	}
	db.cond = sync.NewCond(&db.mu)
	return db
}

// NewDBShard creates an empty task database that is shard index of a
// count-wide shard group: it assigns the strided ID sequence index+1,
// index+1+count, index+1+2·count, … so every ID maps back to its owner
// via ShardOfTask. NewDBShard(0, 1) is NewDB.
func NewDBShard(index, count int) (*DB, error) {
	if count < 1 {
		count = 1
	}
	if index < 0 || index >= count {
		return nil, fmt.Errorf("emews: shard index %d out of range for %d shards", index, count)
	}
	db := NewDB()
	db.shardIndex, db.shardCount = index, count
	// First assigned ID is nextID + stride = index + 1.
	db.nextID = int64(index+1) - db.stride()
	return db, nil
}

// ShardIdentity reports which shard of how many this database is
// (0 of 1 when unsharded).
func (db *DB) ShardIdentity() (index, count int) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.shardCount < 1 {
		return 0, 1
	}
	return db.shardIndex, db.shardCount
}

// stride is the ID-allocation step. The caller holds db.mu (or the DB is
// not yet shared).
func (db *DB) stride() int64 {
	if db.shardCount > 1 {
		return int64(db.shardCount)
	}
	return 1
}

// ErrClosed is returned by operations on a closed database.
var ErrClosed = errors.New("emews: task database closed")

// ErrStaleClaim is returned (wrapped) when a claim resolves after its
// attempt has been superseded: the lease expired (or the worker's
// connection dropped), the task was requeued, and the resolution would
// otherwise overwrite a newer attempt. Check with errors.Is.
var ErrStaleClaim = errors.New("stale claim")

// Submit inserts a task and returns its Future.
func (db *DB) Submit(taskType string, priority int, payload string) (*Future, error) {
	return db.SubmitRetry(taskType, priority, payload, 1)
}

// SubmitRetry inserts a task that is automatically requeued on failure
// until maxAttempts pops have been consumed.
func (db *DB) SubmitRetry(taskType string, priority int, payload string, maxAttempts int) (*Future, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil, ErrClosed
	}
	if taskType == "" {
		return nil, errors.New("emews: task type required")
	}
	f, err := db.submitLocked(taskType, priority, payload, maxAttempts)
	if err != nil {
		return nil, err
	}
	db.cond.Broadcast()
	return f, nil
}

// submitLocked inserts one task; the caller holds db.mu and broadcasts.
func (db *DB) submitLocked(taskType string, priority int, payload string, maxAttempts int) (*Future, error) {
	if maxAttempts < 1 {
		maxAttempts = 1
	}
	t := Task{
		ID: db.nextID + db.stride(), Type: taskType, Priority: priority, Payload: payload,
		MaxAttempts: maxAttempts,
		Status:      StatusQueued, Submitted: time.Now(),
	}
	if _, err := db.commitLocked(&taskMutation{Op: opSubmit, Task: &t}); err != nil {
		return nil, err
	}
	mTaskSubmitted.Inc()
	mQueueDepth.Inc()
	return db.futures[t.ID], nil
}

// SubmitBatch submits several payloads of one type at a single priority.
// The batch is atomic: it takes the lock once, so no observer (Pop, Stats)
// can see it half-submitted, and waiting workers are woken with a single
// broadcast instead of one per task.
func (db *DB) SubmitBatch(taskType string, priority int, payloads []string) ([]*Future, error) {
	return db.SubmitBatchRetry(taskType, priority, payloads, 1)
}

// SubmitBatchRetry is SubmitBatch with a per-task retry budget: every
// task in the batch is requeued on failure until maxAttempts pops have
// been consumed (DB.SubmitRetry semantics).
func (db *DB) SubmitBatchRetry(taskType string, priority int, payloads []string, maxAttempts int) ([]*Future, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil, ErrClosed
	}
	if taskType == "" {
		return nil, errors.New("emews: task type required")
	}
	out := make([]*Future, 0, len(payloads))
	for _, p := range payloads {
		f, err := db.submitLocked(taskType, priority, p, maxAttempts)
		if err != nil {
			// Fail-stop mid-batch: earlier tasks are committed and stay;
			// report the persistence fault rather than a partial success.
			if len(out) > 0 {
				db.cond.Broadcast()
			}
			return nil, err
		}
		out = append(out, f)
	}
	if len(out) > 0 {
		db.cond.Broadcast()
	}
	return out, nil
}

// Claim is a worker's lease on a running task.
type Claim struct {
	Task Task
	db   *DB
	used bool
}

// Pop blocks until a task of taskType is available (or ctx cancels /
// the DB closes) and claims it.
func (db *DB) Pop(ctx context.Context, taskType string) (*Claim, error) {
	// Wake the cond wait when ctx is canceled. The broadcast MUST happen
	// under db.mu: the waiter re-checks ctx.Err() while holding the lock
	// and only then calls cond.Wait(), so a locked broadcast cannot land
	// in the window between the check and the wait. An unlocked broadcast
	// could, losing the wakeup and hanging Pop until an unrelated
	// Submit/Close broadcasts.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-ctx.Done():
			db.mu.Lock()
			db.cond.Broadcast()
			db.mu.Unlock()
		case <-stop:
		}
	}()

	waitStart := time.Now()
	db.mu.Lock()
	defer db.mu.Unlock()
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if db.closed {
			return nil, ErrClosed
		}
		c, err := db.popLocked(taskType)
		if err != nil {
			return nil, err
		}
		if c != nil {
			mPopWait.ObserveSince(waitStart)
			return c, nil
		}
		db.cond.Wait()
	}
}

// PopBatch blocks until at least one task of taskType is available (or
// ctx cancels / the DB closes), then claims up to max tasks in one lock
// hold — the server-side half of the batched pop_batch wire op, which
// amortizes wakeup, locking, and (with a WAL attached) commit ordering
// over the whole batch. If a mid-batch commit fails after at least one
// task was claimed, the claimed prefix is returned rather than an error:
// those claims are real and must reach a worker.
func (db *DB) PopBatch(ctx context.Context, taskType string, max int) ([]*Claim, error) {
	if max < 1 {
		max = 1
	}
	// Same locked-broadcast wakeup pattern as Pop; see the comment there.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-ctx.Done():
			db.mu.Lock()
			db.cond.Broadcast()
			db.mu.Unlock()
		case <-stop:
		}
	}()

	waitStart := time.Now()
	db.mu.Lock()
	defer db.mu.Unlock()
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if db.closed {
			return nil, ErrClosed
		}
		var out []*Claim
		for len(out) < max {
			c, err := db.popLocked(taskType)
			if err != nil {
				if len(out) > 0 {
					mPopWait.ObserveSince(waitStart)
					return out, nil
				}
				return nil, err
			}
			if c == nil {
				break
			}
			out = append(out, c)
		}
		if len(out) > 0 {
			mPopWait.ObserveSince(waitStart)
			return out, nil
		}
		db.cond.Wait()
	}
}

// TryPop claims a task if one is immediately available.
func (db *DB) TryPop(taskType string) (*Claim, bool, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil, false, ErrClosed
	}
	c, err := db.popLocked(taskType)
	if err != nil {
		return nil, false, err
	}
	if c != nil {
		return c, true, nil
	}
	return nil, false, nil
}

// popLocked claims the highest-priority queued task of taskType, or
// returns (nil, nil) if none is queued. The caller holds db.mu.
func (db *DB) popLocked(taskType string) (*Claim, error) {
	q, ok := db.queues[taskType]
	if !ok {
		return nil, nil
	}
	for q.Len() > 0 {
		item := heap.Pop(q).(heapItem)
		t := db.tasks[item.id]
		// Defensive lazy deletion: skip heap entries whose task is no
		// longer queued (e.g. resolved out of band, or a stale entry a
		// replayed pop left behind) rather than corrupting its state.
		if t == nil || t.Status != StatusQueued {
			continue
		}
		if _, err := db.commitLocked(&taskMutation{Op: opPop, ID: t.ID, At: time.Now()}); err != nil {
			// Fail-stop: the pop was never committed, so the task stays
			// queued — put its heap entry back.
			heap.Push(q, item)
			return nil, err
		}
		mTaskPopped.Inc()
		mQueueDepth.Dec()
		mRunningNow.Inc()
		return &Claim{Task: *t, db: db}, nil
	}
	return nil, nil
}

// finish resolves an attempt of task id. epoch > 0 fences the resolution:
// it must match the task's current attempt epoch (the one recorded at pop
// time), otherwise the claim is stale — its task was reclaimed, requeued,
// and possibly re-popped — and the resolution is rejected with
// ErrStaleClaim instead of silently corrupting the newer attempt.
// epoch == 0 is the unfenced path (callers that pass no epoch) and only
// checks that the task is running. A duplicate delivery of the same
// attempt's resolution (same epoch, already recorded) returns nil, which
// makes fenced Complete/Fail safe to retry over a flaky transport.
//
// requeued reports whether the resolution put the task back on the queue
// (a failed attempt with retry budget left) rather than terminating it.
func (db *DB) finish(id, epoch int64, status TaskStatus, result, errMsg string) (requeued bool, err error) {
	db.mu.Lock()
	t, ok := db.tasks[id]
	if !ok {
		db.mu.Unlock()
		return false, fmt.Errorf("emews: unknown task %d", id)
	}
	if epoch > 0 {
		if t.Epoch != epoch {
			cur := t.Epoch
			db.mu.Unlock()
			mStaleRejected.Inc()
			return false, fmt.Errorf("emews: task %d attempt %d superseded by attempt %d: %w", id, epoch, cur, ErrStaleClaim)
		}
		switch t.Status {
		case StatusRunning:
			// The claim is current; fall through and resolve it.
		case StatusComplete, StatusFailed:
			if t.Status == status {
				// Duplicate delivery of this attempt's resolution
				// (e.g. a wire retry after a lost response): first
				// writer wins, the retry is acknowledged as success.
				db.mu.Unlock()
				return false, nil
			}
			st := t.Status
			db.mu.Unlock()
			mStaleRejected.Inc()
			return false, fmt.Errorf("emews: task %d already %v: %w", id, st, ErrStaleClaim)
		case StatusQueued:
			if status == StatusFailed {
				// The attempt's failure was already recorded by a
				// requeue (lease reap or connection loss).
				db.mu.Unlock()
				return true, nil
			}
			db.mu.Unlock()
			mStaleRejected.Inc()
			return false, fmt.Errorf("emews: task %d attempt %d was reclaimed and requeued: %w", id, epoch, ErrStaleClaim)
		default:
			db.mu.Unlock()
			mStaleRejected.Inc()
			return false, fmt.Errorf("emews: task %d canceled: %w", id, ErrStaleClaim)
		}
	} else if t.Status != StatusRunning {
		db.mu.Unlock()
		return false, fmt.Errorf("emews: task %d not running (state %v)", id, t.Status)
	}
	// The decision is made under the lock: a failed attempt with budget
	// left goes back to the queue (automatic retry) instead of terminating
	// the future. The decision is recorded in the mutation so replay does
	// not have to re-derive it.
	requeue := status == StatusFailed && t.Attempts < t.MaxAttempts && !db.closed
	res, err := db.commitLocked(&taskMutation{
		Op: opFinish, ID: id, Status: status, Result: result, ErrMsg: errMsg,
		Requeued: requeue, At: time.Now(),
	})
	if err != nil {
		db.mu.Unlock()
		return false, err
	}
	if requeue {
		db.cond.Broadcast()
		db.mu.Unlock()
		mTaskRequeued.Inc()
		mRunningNow.Dec()
		mQueueDepth.Inc()
		return true, nil
	}
	service := t.Finished.Sub(t.Started)
	db.mu.Unlock()
	mRunningNow.Dec()
	mTaskService.Observe(service)
	switch status {
	case StatusComplete:
		mTaskCompleted.Inc()
	case StatusFailed:
		mTaskFailed.Inc()
	case StatusCanceled:
		mTaskCanceled.Inc()
	}
	if res.terminal != nil {
		close(res.terminal.done)
	}
	return false, nil
}

// Complete marks the claimed task successful with the given result. It
// returns an ErrStaleClaim-wrapped error if this claim's attempt was
// superseded (lease expired and the task was requeued/re-popped).
func (c *Claim) Complete(result string) error {
	if c.used {
		return errors.New("emews: claim already resolved")
	}
	c.used = true
	_, err := c.db.finish(c.Task.ID, c.Task.Epoch, StatusComplete, result, "")
	return err
}

// Fail marks the claimed task failed. Like Complete, a stale claim is
// rejected with ErrStaleClaim.
func (c *Claim) Fail(errMsg string) error {
	if c.used {
		return errors.New("emews: claim already resolved")
	}
	c.used = true
	_, err := c.db.finish(c.Task.ID, c.Task.Epoch, StatusFailed, "", errMsg)
	return err
}

// Get returns a snapshot of the task.
func (db *DB) Get(id int64) (Task, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.tasks[id]
	if !ok {
		return Task{}, fmt.Errorf("emews: unknown task %d", id)
	}
	return *t, nil
}

// Stats snapshots occupancy counters.
func (db *DB) Stats() Stats {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.stats
}

// Close cancels all queued tasks and unblocks every waiting Pop with
// ErrClosed. Running tasks may still Complete/Fail. The close is logged
// best-effort: a WAL write failure cannot prevent shutdown, so on that
// path the cancellations are applied in memory only (a subsequent crash
// replays them as still queued, which is the safer direction).
func (db *DB) Close() {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return
	}
	m := &taskMutation{Op: opDBClose, At: time.Now()}
	if db.backend != nil {
		if rec, err := json.Marshal(m); err == nil {
			_ = db.backend.Append(rec)
		}
	}
	res, _ := db.applyLocked(m)
	db.cond.Broadcast()
	db.mu.Unlock()
	for _, f := range res.canceled {
		mQueueDepth.Dec()
		mTaskCanceled.Inc()
		close(f.done)
	}
}

// AsCompleted returns a channel that yields futures in completion order,
// closing after all have terminated or ctx is canceled. This is the batch
// analogue of the per-future polling the interleaved MUSIC driver uses.
func AsCompleted(ctx context.Context, futures []*Future) <-chan *Future {
	out := make(chan *Future)
	var wg sync.WaitGroup
	for _, f := range futures {
		wg.Add(1)
		go func(f *Future) {
			defer wg.Done()
			select {
			case <-f.Done():
				select {
				case out <- f:
				case <-ctx.Done():
				}
			case <-ctx.Done():
			}
		}(f)
	}
	go func() {
		wg.Wait()
		close(out)
	}()
	return out
}

// heapItem orders queued tasks by priority (desc) then submission (asc).
type heapItem struct {
	id       int64
	priority int
	seq      int64
}

type taskHeap []heapItem

func (h taskHeap) Len() int { return len(h) }
func (h taskHeap) Less(i, j int) bool {
	if h[i].priority != h[j].priority {
		return h[i].priority > h[j].priority
	}
	return h[i].seq < h[j].seq
}
func (h taskHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *taskHeap) Push(x any)   { *h = append(*h, x.(heapItem)) }
func (h *taskHeap) Pop() any {
	old := *h
	n := len(old)
	item := old[n-1]
	*h = old[:n-1]
	return item
}
