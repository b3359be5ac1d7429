package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"math"
	"strconv"
	"strings"

	"osprey/internal/rng"
)

// The benchmark generates every input from --seed; the program under test
// receives only the generated inputs. Each plan is an endless, seeded
// operation sequence, so every ladder rung can replay the same prefix.

// taskPlan is task-stream's op sequence: submit batches of 1-16 tasks with
// payloads of 64 B to 4 KiB, log-uniform, so both small-frame and
// copy-bound costs are exercised.
type taskPlan struct {
	r      *rng.Stream
	filler string
	seq    int64
}

const (
	minPayload = 64
	maxPayload = 4096
	maxBatch   = 16
)

func newTaskPlan(seed uint64) *taskPlan {
	r := rng.New(seed).Split("task-stream")
	var sb strings.Builder
	fr := r.Split("filler")
	for sb.Len() < maxPayload {
		sb.WriteByte(byte('a' + fr.Intn(26)))
	}
	return &taskPlan{r: r.Split("ops"), filler: sb.String()}
}

// next returns the next batch of payloads. Each payload starts with its
// plan sequence number, so every task's payload, and so its result, is
// unique.
func (p *taskPlan) next() []string {
	n := 1 + p.r.Intn(maxBatch)
	out := make([]string, n)
	for i := range out {
		size := int(minPayload * math.Pow(maxPayload/minPayload, p.r.Float64()))
		head := strconv.FormatInt(p.seq, 10) + "|"
		if size < len(head) {
			size = len(head)
		}
		out[i] = head + p.filler[:size-len(head)]
		p.seq++
	}
	return out
}

// taskResult is what the worker returns for a payload; the end-of-run
// check recomputes it from each stored payload.
func taskResult(payload string) string {
	h := fnv.New64a()
	h.Write([]byte(payload))
	return strconv.FormatUint(h.Sum64(), 16)
}

// taskPlanDigest hashes the first n batches of the plan for seed.
func taskPlanDigest(seed uint64, n int) string {
	p := newTaskPlan(seed)
	h := sha256.New()
	for i := 0; i < n; i++ {
		for _, s := range p.next() {
			fmt.Fprintf(h, "%d:%s\n", len(s), s)
		}
		h.Write([]byte{'|'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// metaOp kinds of the meta-stream mix.
const (
	opAppend     = "append"
	opGet        = "get"
	opProvenance = "provenance"
	opList       = "list"
)

// metaItems is the size of the seeded set of data items meta-stream works
// over: large enough that appends spread over many records, small enough
// that ListData stays a bounded read.
const metaItems = 48

// metaOp is one request of the meta-stream mix.
type metaOp struct {
	Kind     string
	Item     int    // index into the seeded item set
	Checksum string // appends: the version's checksum
	Size     int    // appends: the version's size
}

// metaPlan is meta-stream's request sequence: appends beside reads of
// single records, their provenance, and the whole namespace.
type metaPlan struct {
	r   *rng.Stream
	seq int64
}

func newMetaPlan(seed uint64) *metaPlan {
	return &metaPlan{r: rng.New(seed).Split("meta-stream")}
}

// Mix shares in percent: appends 40, record reads 40, provenance 15,
// namespace listings 5.
func (p *metaPlan) next() metaOp {
	p.seq++
	u := p.r.Intn(100)
	op := metaOp{Item: p.r.Intn(metaItems)}
	switch {
	case u < 40:
		op.Kind = opAppend
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], p.r.Uint64())
		op.Checksum = fmt.Sprintf("%d-%s", p.seq, hex.EncodeToString(b[:]))
		op.Size = 1024 + p.r.Intn(1<<20)
	case u < 80:
		op.Kind = opGet
	case u < 95:
		op.Kind = opProvenance
	default:
		op.Kind = opList
	}
	return op
}

func metaPlanDigest(seed uint64, n int) string {
	p := newMetaPlan(seed)
	h := sha256.New()
	for i := 0; i < n; i++ {
		op := p.next()
		fmt.Fprintf(h, "%s %d %s %d\n", op.Kind, op.Item, op.Checksum, op.Size)
	}
	return hex.EncodeToString(h.Sum(nil))
}
