package core

import (
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/ilog"
	"repro/internal/sessionstore"
	"repro/internal/synth"
)

func TestBinaryCodecRoundTrip(t *testing.T) {
	arch, sys := fixture(t, Config{UseImplicit: true, UseProfile: true, ProfileLearnRate: 0.2})
	st := arch.Truth.SearchTopics[0]
	sess := sys.NewSession("bin-1", nil)
	hits, err := sess.Query(st.Query)
	if err != nil {
		t.Fatal(err)
	}
	ids := hits.IDs()
	for i := 0; i < 3 && i < len(ids); i++ {
		err := sess.Observe(ilog.Event{
			SessionID: "bin-1", Action: ilog.ActionClickKeyframe,
			ShotID: ids[i], Rank: i,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sess.Query(st.Query); err != nil {
		t.Fatal(err)
	}

	data, err := sess.EncodeState()
	if err != nil {
		t.Fatal(err)
	}
	if data[0] != binarySnapshotTag {
		t.Fatalf("binary snapshot tag = 0x%02x", data[0])
	}
	// Deterministic: encoding the same state twice is byte-identical
	// (the store write-through's no-change skip depends on this).
	again, err := sess.EncodeState()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(data, again) {
		t.Fatal("EncodeState is not deterministic")
	}

	restored, err := sys.RestoreSession(data)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Step() != sess.Step() || restored.EvidenceCount() != sess.EvidenceCount() ||
		restored.SeenShots() != sess.SeenShots() || restored.LastQuery() != sess.LastQuery() {
		t.Fatal("binary round-trip lost session state")
	}
	if restored.EvidenceFingerprint() != sess.EvidenceFingerprint() {
		t.Fatalf("fingerprint %x != %x after binary round-trip",
			restored.EvidenceFingerprint(), sess.EvidenceFingerprint())
	}
	// And the restored session continues identically.
	a, err := sess.Query(st.Query)
	if err != nil {
		t.Fatal(err)
	}
	b, err := restored.Query(st.Query)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.IDs(), b.IDs()) {
		t.Fatal("restored session ranks differently")
	}
}

func TestBinaryCodecRejectsCorrupt(t *testing.T) {
	_, sys := fixture(t, Config{UseImplicit: true})
	sess := sys.NewSession("bin-2", nil)
	data, err := sess.EncodeState()
	if err != nil {
		t.Fatal(err)
	}
	cases := [][]byte{
		{},
		{0x7f},
		data[:len(data)-1],
		append(append([]byte{}, data...), 0xee),
	}
	for i, c := range cases {
		if _, err := sys.RestoreSession(c); err == nil {
			t.Errorf("corrupt binary snapshot %d accepted", i)
		}
	}
}

// failingStore wraps a SessionStore and fails Puts on demand, to
// exercise the dirty-flag retry path.
type failingStore struct {
	sessionstore.SessionStore
	failPuts bool
}

func (f *failingStore) Put(id string, state []byte) error {
	if f.failPuts {
		return errors.New("store down")
	}
	return f.SessionStore.Put(id, state)
}

func newStoreManager(t *testing.T, sys *System, store sessionstore.SessionStore, opts ManagerOptions) *SessionManager {
	t.Helper()
	opts.Store = store
	m, err := NewSessionManager(sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

func TestManagerWriteThroughAndRestore(t *testing.T) {
	arch, sys := fixture(t, Config{UseImplicit: true})
	st := arch.Truth.SearchTopics[0]
	store := sessionstore.NewMemoryStore()
	m := newStoreManager(t, sys, store, ManagerOptions{})

	id, err := m.Create(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Created sessions hit the store immediately (round-robin create
	// on one replica, affinity routing to another).
	if _, err := store.Get(id); err != nil {
		t.Fatalf("create did not write through: %v", err)
	}

	var fp uint64
	err = m.With(id, func(sess *Session) error {
		hits, err := sess.Query(st.Query)
		if err != nil {
			return err
		}
		if err := sess.Observe(ilog.Event{
			SessionID: id, Action: ilog.ActionClickKeyframe, ShotID: hits.IDs()[0],
		}); err != nil {
			return err
		}
		fp = sess.EvidenceFingerprint()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// A second manager over a *fresh* system and the same store (a
	// restarted or sibling replica) restores the session on first
	// touch with the identical fingerprint.
	sys2, err := NewSystemFromCollection(arch.Collection, Config{UseImplicit: true})
	if err != nil {
		t.Fatal(err)
	}
	m2 := newStoreManager(t, sys2, store, ManagerOptions{})
	err = m2.With(id, func(sess *Session) error {
		if got := sess.EvidenceFingerprint(); got != fp {
			return fmt.Errorf("restored fingerprint %x, want %x", got, fp)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if s := m2.Stats(); s.Restored != 1 {
		t.Fatalf("Restored = %d, want 1", s.Restored)
	}
}

func TestManagerRefreshAdoptsNewerState(t *testing.T) {
	// Replica A creates the session, replica B (sharing the store)
	// owns and mutates it, then traffic fails back to A: A must serve
	// B's state, not its stale RAM copy.
	arch, sys := fixture(t, Config{UseImplicit: true})
	st := arch.Truth.SearchTopics[0]
	store := sessionstore.NewMemoryStore()
	a := newStoreManager(t, sys, store, ManagerOptions{})
	b := newStoreManager(t, sys, store, ManagerOptions{})

	id, err := a.Create(nil)
	if err != nil {
		t.Fatal(err)
	}
	var fp uint64
	err = b.With(id, func(sess *Session) error {
		hits, err := sess.Query(st.Query)
		if err != nil {
			return err
		}
		for i := 0; i < 2; i++ {
			if err := sess.Observe(ilog.Event{
				SessionID: id, Action: ilog.ActionClickKeyframe, ShotID: hits.IDs()[i],
			}); err != nil {
				return err
			}
		}
		fp = sess.EvidenceFingerprint()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if fp == 0 {
		t.Fatal("evidence fingerprint still zero after feedback")
	}
	err = a.With(id, func(sess *Session) error {
		if got := sess.EvidenceFingerprint(); got != fp {
			return fmt.Errorf("replica A served stale state: fingerprint %x, want %x", got, fp)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Deletion propagates through the store too.
	if err := b.Delete(id); err != nil {
		t.Fatal(err)
	}
	if err := a.With(id, func(*Session) error { return nil }); !errors.Is(err, ErrSessionNotFound) {
		t.Fatalf("deleted-elsewhere session still served: err = %v", err)
	}
}

func TestManagerEvictionFlushesDirty(t *testing.T) {
	arch, sys := fixture(t, Config{UseImplicit: true})
	st := arch.Truth.SearchTopics[0]
	fs := &failingStore{SessionStore: sessionstore.NewMemoryStore()}
	var mu sync.Mutex
	now := time.Unix(1_200_000_000, 0)
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	m := newStoreManager(t, sys, fs, ManagerOptions{
		TTL: time.Minute, SweepInterval: time.Hour, Now: clock,
	})

	id, err := m.Create(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Store goes down; the mutation stays resident and dirty.
	fs.failPuts = true
	err = m.With(id, func(sess *Session) error {
		hits, err := sess.Query(st.Query)
		if err != nil {
			return err
		}
		return sess.Observe(ilog.Event{
			SessionID: id, Action: ilog.ActionClickKeyframe, ShotID: hits.IDs()[0],
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if s := m.Stats(); s.PersistErrors == 0 {
		t.Fatal("failed write-through not counted")
	}

	// Store recovers; TTL eviction must flush the dirty evidence
	// before dropping the RAM copy.
	fs.failPuts = false
	mu.Lock()
	now = now.Add(2 * time.Minute)
	mu.Unlock()
	if n := m.Sweep(); n != 1 {
		t.Fatalf("Sweep evicted %d sessions, want 1", n)
	}
	data, err := fs.SessionStore.Get(id)
	if err != nil {
		t.Fatalf("evicted dirty session not flushed: %v", err)
	}
	restored, err := sys.RestoreSession(data)
	if err != nil {
		t.Fatal(err)
	}
	if restored.EvidenceCount() != 1 {
		t.Fatalf("flushed state has %d evidence, want 1", restored.EvidenceCount())
	}

	// And the evicted session is transparently restored on next touch.
	err = m.With(id, func(sess *Session) error {
		if sess.EvidenceCount() != 1 {
			return fmt.Errorf("restored session has %d evidence", sess.EvidenceCount())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestManagerDrain(t *testing.T) {
	arch, sys := fixture(t, Config{UseImplicit: true})
	st := arch.Truth.SearchTopics[0]
	fs := &failingStore{SessionStore: sessionstore.NewMemoryStore()}
	m := newStoreManager(t, sys, fs, ManagerOptions{})

	id, err := m.Create(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Make the session dirty (store down during the mutation), then
	// heal the store: Drain must flush it.
	fs.failPuts = true
	err = m.With(id, func(sess *Session) error {
		hits, err := sess.Query(st.Query)
		if err != nil {
			return err
		}
		return sess.Observe(ilog.Event{
			SessionID: id, Action: ilog.ActionClickKeyframe, ShotID: hits.IDs()[0],
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	fs.failPuts = false

	flushed, err := m.Drain()
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if flushed != 1 {
		t.Fatalf("Drain flushed %d, want 1", flushed)
	}
	if !m.Draining() {
		t.Fatal("Draining() false after Drain")
	}

	// Draining refuses anything session-touching...
	if _, err := m.Create(nil); !errors.Is(err, ErrDraining) {
		t.Fatalf("Create while draining: %v", err)
	}
	if err := m.With(id, func(*Session) error { return nil }); !errors.Is(err, ErrDraining) {
		t.Fatalf("With while draining: %v", err)
	}
	if err := m.Delete(id); !errors.Is(err, ErrDraining) {
		t.Fatalf("Delete while draining: %v", err)
	}
	// ...but read-only introspection stays up for ops.
	if err := m.Inspect(id, func(*Session) error { return nil }); err != nil {
		t.Fatalf("Inspect while draining: %v", err)
	}

	// The flushed state is adoptable by another manager.
	m2 := newStoreManager(t, sys, fs.SessionStore, ManagerOptions{})
	err = m2.With(id, func(sess *Session) error {
		if sess.EvidenceCount() != 1 {
			return fmt.Errorf("adopted session has %d evidence", sess.EvidenceCount())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// stereotypes are deterministic per-iteration interaction scripts
// standing in for the paper's user types: which hits get which
// implicit actions after each result page.
var stereotypes = map[string]func(id string, ids []string, step int) []ilog.Event{
	"clicker": func(id string, ids []string, step int) []ilog.Event {
		var evs []ilog.Event
		for i := 0; i < 2 && i < len(ids); i++ {
			evs = append(evs, ilog.Event{
				SessionID: id, Action: ilog.ActionClickKeyframe, ShotID: ids[i], Rank: i,
			})
		}
		return evs
	},
	"player": func(id string, ids []string, step int) []ilog.Event {
		if len(ids) == 0 {
			return nil
		}
		return []ilog.Event{{
			SessionID: id, Action: ilog.ActionPlay, ShotID: ids[0],
			Seconds: float64(3 + step%5),
		}}
	},
	"mixed": func(id string, ids []string, step int) []ilog.Event {
		var evs []ilog.Event
		if len(ids) > 0 {
			evs = append(evs, ilog.Event{
				SessionID: id, Action: ilog.ActionHighlight, ShotID: ids[0],
			})
		}
		if len(ids) > 2 && step%2 == 1 {
			evs = append(evs, ilog.Event{
				SessionID: id, Action: ilog.ActionPlay, ShotID: ids[2], Seconds: 6,
			})
		}
		return evs
	},
}

// driveIteration runs one study iteration (query + stereotype
// feedback) and returns the ranking it produced.
func driveIteration(sess *Session, query, stereo string, step int) ([]string, error) {
	hits, err := sess.Query(query)
	if err != nil {
		return nil, err
	}
	ids := hits.IDs()
	for _, e := range stereotypes[stereo](sess.ID(), ids, step) {
		if err := sess.Observe(e); err != nil {
			return nil, err
		}
	}
	return ids, nil
}

// TestKillRestartRoundTrip is the subsystem's core promise: a session
// interrupted mid-study by a process kill and resumed from the journal
// by a fresh System finishes with an EvidenceFingerprint and a
// next-query ranking bit-identical to the uninterrupted run — across
// seeds and interaction stereotypes.
func TestKillRestartRoundTrip(t *testing.T) {
	const totalIters, killAfter = 6, 3
	cfg := Config{UseImplicit: true}
	for _, seed := range []int64{11, 42} {
		arch, err := synth.Generate(synth.TinyConfig(), seed)
		if err != nil {
			t.Fatal(err)
		}
		queries := make([]string, totalIters)
		for i := range queries {
			queries[i] = arch.Truth.SearchTopics[i%len(arch.Truth.SearchTopics)].Query
		}
		for stereo := range stereotypes {
			t.Run(fmt.Sprintf("seed%d/%s", seed, stereo), func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "sessions.jnl")

				// Phase 1: replica 1 runs the first half of the study,
				// then "crashes" (no Close, no flush — write-through
				// with per-write fsync already journaled every step).
				sys1, err := NewSystemFromCollection(arch.Collection, cfg)
				if err != nil {
					t.Fatal(err)
				}
				store1, err := sessionstore.OpenJournal(path, sessionstore.WithSyncInterval(0))
				if err != nil {
					t.Fatal(err)
				}
				m1, err := NewSessionManager(sys1, ManagerOptions{Store: store1})
				if err != nil {
					t.Fatal(err)
				}
				id, err := m1.Create(nil)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < killAfter; i++ {
					err := m1.With(id, func(sess *Session) error {
						_, err := driveIteration(sess, queries[i], stereo, i)
						return err
					})
					if err != nil {
						t.Fatal(err)
					}
				}
				// Simulate the kill: abandon the manager, release only
				// the file handle so the journal can be reopened.
				store1.Close()

				// Phase 2: a fresh replica adopts the session from the
				// journal and finishes the study.
				sys2, err := NewSystemFromCollection(arch.Collection, cfg)
				if err != nil {
					t.Fatal(err)
				}
				store2, err := sessionstore.OpenJournal(path, sessionstore.WithSyncInterval(0))
				if err != nil {
					t.Fatal(err)
				}
				defer store2.Close()
				m2, err := NewSessionManager(sys2, ManagerOptions{Store: store2})
				if err != nil {
					t.Fatal(err)
				}
				defer m2.Close()
				var gotFP uint64
				var gotRank []string
				for i := killAfter; i < totalIters; i++ {
					err := m2.With(id, func(sess *Session) error {
						rank, err := driveIteration(sess, queries[i], stereo, i)
						if err != nil {
							return err
						}
						gotFP = sess.EvidenceFingerprint()
						gotRank = rank
						return nil
					})
					if err != nil {
						t.Fatal(err)
					}
				}

				// Reference: the same study uninterrupted on one system.
				refSys, err := NewSystemFromCollection(arch.Collection, cfg)
				if err != nil {
					t.Fatal(err)
				}
				ref := refSys.NewSession(id, nil)
				var refRank []string
				for i := 0; i < totalIters; i++ {
					refRank, err = driveIteration(ref, queries[i], stereo, i)
					if err != nil {
						t.Fatal(err)
					}
				}
				if gotFP != ref.EvidenceFingerprint() {
					t.Fatalf("fingerprint after kill/restart %x, uninterrupted %x",
						gotFP, ref.EvidenceFingerprint())
				}
				if !reflect.DeepEqual(gotRank, refRank) {
					t.Fatal("final ranking differs from uninterrupted run")
				}
				if s := m2.Stats(); s.Restored != 1 {
					t.Fatalf("adopting replica Restored = %d, want 1", s.Restored)
				}
			})
		}
	}
}
