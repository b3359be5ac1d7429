package aero

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"osprey/internal/wal"
)

// Event-sourced core of the metadata Store. Every mutation of the store —
// on the live API path and during crash recovery alike — is a typed,
// serializable mutation record routed through applyLocked, the single
// state-transition function. The live path builds the record (assigning
// IDs, version numbers, and timestamps so the transition is fully
// deterministic), persists it through the optional wal.Backend, and only
// then applies it; recovery replays the same records through the same
// applyLocked, rebuilding identical state without re-firing side effects
// (metrics, watch notifications) because those live in the API wrappers,
// not in the transition.

// Mutation ops of the AERO metadata store.
const (
	opCreateData    = "data.create"
	opAppendVersion = "data.version"
	opCreateFlow    = "flow.create"
	opRecordRun     = "flow.run"
	opAddProvenance = "prov.add"
)

// mutation is one serialized state transition. Exactly the fields of its
// op are set; everything the transition needs (assigned UUID/ID, version
// number, timestamps) is recorded so replay is deterministic.
type mutation struct {
	Op        string          `json:"op"`
	Seq       int             `json:"seq,omitempty"` // ID counter value consumed by create ops
	UUID      string          `json:"uuid,omitempty"`
	Name      string          `json:"name,omitempty"`
	SourceURL string          `json:"source_url,omitempty"`
	Version   *Version        `json:"version,omitempty"`
	Flow      *FlowRecord     `json:"flow,omitempty"`
	FlowID    string          `json:"flow_id,omitempty"`
	At        time.Time       `json:"at,omitempty"`
	Edge      *ProvenanceEdge `json:"edge,omitempty"`
}

// applyLocked is the pure state transition: it mutates only the store's
// in-memory structures and fires no side effects, so it is equally
// correct on the live path and during replay. The caller holds s.mu.
func (s *Store) applyLocked(m *mutation) error {
	switch m.Op {
	case opCreateData:
		// The consumed counter value rides in m.Seq and the owning tenant
		// in the ID prefix, so replay restores per-tenant allocation state.
		s.bumpSeqLocked(tenantOf(m.UUID), m.Seq)
		s.data[m.UUID] = &DataRecord{UUID: m.UUID, Name: m.Name, SourceURL: m.SourceURL}
	case opAppendVersion:
		rec, ok := s.data[m.UUID]
		if !ok {
			return fmt.Errorf("%w: data %s", ErrNotFound, m.UUID)
		}
		rec.Versions = append(rec.Versions, *m.Version)
	case opCreateFlow:
		s.bumpSeqLocked(tenantOf(m.Flow.ID), m.Seq)
		cp := *m.Flow
		s.flows[cp.ID] = &cp
	case opRecordRun:
		f, ok := s.flows[m.FlowID]
		if !ok {
			return fmt.Errorf("%w: flow %s", ErrNotFound, m.FlowID)
		}
		f.Runs++
		f.LastRun = m.At
	case opAddProvenance:
		s.prov = append(s.prov, *m.Edge)
	default:
		return fmt.Errorf("aero: unknown wal op %q", m.Op)
	}
	return nil
}

// commitLocked persists m through the backend (if any) and applies it.
// Fail-stop: a persistence error leaves the in-memory state untouched, so
// memory never runs ahead of the log. The caller holds s.mu.
func (s *Store) commitLocked(m *mutation) error {
	if s.backend != nil {
		rec, err := json.Marshal(m)
		if err != nil {
			return fmt.Errorf("aero: encode mutation: %w", err)
		}
		if err := s.backend.Append(rec); err != nil {
			return fmt.Errorf("aero: wal append: %w", err)
		}
	}
	return s.applyLocked(m)
}

// OpenStore recovers a metadata store from a WAL: the newest snapshot is
// loaded, the remaining mutation records are replayed through the same
// applyLocked the live path uses, and the log becomes the store's
// persistence backend. The log must come straight from wal.Open (not yet
// replayed).
func OpenStore(l *wal.Log) (*Store, error) {
	s := NewStore()
	if snap, ok := l.Snapshot(); ok {
		if err := s.loadSnapshot(snap); err != nil {
			return nil, err
		}
	}
	if _, err := l.Replay(func(rec []byte) error {
		var m mutation
		if err := json.Unmarshal(rec, &m); err != nil {
			return fmt.Errorf("aero: decode mutation: %w", err)
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.applyLocked(&m)
	}); err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.backend = l
	s.wal = l
	s.mu.Unlock()
	return s, nil
}

// Compact writes a full-state snapshot and truncates the log behind it,
// bounding the next boot's replay. The store's write lock is held across
// serialization and the snapshot write so no mutation can slip into a
// segment the compaction deletes.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return errors.New("aero: store has no WAL (not opened with OpenStore)")
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(s.snapshotLocked()); err != nil {
		return fmt.Errorf("aero: encode snapshot: %w", err)
	}
	return s.wal.WriteSnapshot(buf.Bytes())
}

// loadSnapshot replaces the store contents from the storeSnapshot JSON
// that Compact writes.
func (s *Store) loadSnapshot(b []byte) error {
	var snap storeSnapshot
	if err := json.Unmarshal(b, &snap); err != nil {
		return fmt.Errorf("aero: decode snapshot: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.next = snap.Next
	s.nextT = map[string]int{}
	for t, n := range snap.NextT {
		s.nextT[t] = n
	}
	s.data = map[string]*DataRecord{}
	for _, d := range snap.Data {
		s.data[d.UUID] = cloneData(d)
	}
	s.flows = map[string]*FlowRecord{}
	for _, f := range snap.Flows {
		cp := *f
		s.flows[f.ID] = &cp
	}
	s.prov = append([]ProvenanceEdge(nil), snap.Prov...)
	return nil
}
