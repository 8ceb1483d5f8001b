// Package resultstore is the persistent, content-addressed layer under the
// experiment runner's in-process memo table. A simulation result is a pure
// function of its key — (config fingerprint, workload, effective budget,
// scheduled, simulator code version) — so a completed run can be written to
// disk once and served to every later process that asks for the same key:
// the paper's whole methodology is re-running the same trace-driven
// simulations across a design grid, and with a store the grid simulates
// once per code version instead of once per invocation.
//
// Entries are single JSON files named by the SHA-256 of their key, written
// atomically (temp file + rename) and checksummed. A read verifies the
// checksum and the embedded key before trusting the payload; anything that
// fails verification is quarantined (renamed *.corrupt) and reported as a
// miss, so corruption degrades to recomputation, never to a crash or a
// wrong answer — the same degrade-don't-abort contract the fault-isolation
// layer gives individual jobs.
package resultstore

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"

	"aurora/internal/core"
	"aurora/internal/sample"
	"aurora/internal/simfault"
)

// Key identifies one simulation result. Two processes that build the same
// key are guaranteed (by the determinism contract the aurora-lint suite
// enforces) to compute byte-identical results, which is what makes the
// store safe to share between processes and machines. keyflow
// (aurora-lint) checks that every field reaches hash — the injective
// encoding is only injective over the fields it actually hashes.
//
//aurora:identity(hash)
type Key struct {
	Fingerprint string `json:"fingerprint"` // core.Config.Fingerprint()
	Workload    string `json:"workload"`
	Budget      uint64 `json:"budget"` // effective instruction budget
	Scheduled   bool   `json:"scheduled"`
	// Sample is the sampled-mode discriminator: empty for exact
	// (full-simulation) results, sample.Params.Key() for sampled estimates.
	// It participates in the content address, so a sampled estimate can
	// never be returned where an exact result was asked for, or vice versa.
	Sample      string `json:"sample,omitempty"`
	CodeVersion string `json:"code_version"`
}

// hash returns the content address of the key: a SHA-256 over every field
// with unambiguous separators. The code version participates, so entries
// written by a different simulator build can never be returned.
func (k Key) hash() string {
	h := sha256.New()
	for _, part := range []string{
		k.Fingerprint, k.Workload,
		strconv.FormatUint(k.Budget, 10),
		strconv.FormatBool(k.Scheduled),
		k.Sample,
		k.CodeVersion,
	} {
		io.WriteString(h, part)
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// FaultRecord is the serialized form of a persistable *simfault.Fault.
// The recovered stack is deliberately dropped: it describes one process's
// goroutines, not the job.
type FaultRecord struct {
	Config      string `json:"config"`
	Fingerprint string `json:"fingerprint"`
	Workload    string `json:"workload"`
	Scheduled   bool   `json:"scheduled,omitempty"`
	Subsystem   string `json:"subsystem"`
	Cycle       uint64 `json:"cycle"`
	Panic       string `json:"panic"`
}

// Fault rebuilds the typed fault a stored record describes.
func (r *FaultRecord) Fault() *simfault.Fault {
	return &simfault.Fault{
		Job: simfault.Job{
			Config:      r.Config,
			Fingerprint: r.Fingerprint,
			Workload:    r.Workload,
			Scheduled:   r.Scheduled,
		},
		Subsystem: r.Subsystem,
		Cycle:     r.Cycle,
		Panic:     r.Panic,
	}
}

func recordFault(f *simfault.Fault) *FaultRecord {
	return &FaultRecord{
		Config:      f.Config,
		Fingerprint: f.Fingerprint,
		Workload:    f.Workload,
		Scheduled:   f.Scheduled,
		Subsystem:   f.Subsystem,
		Cycle:       f.Cycle,
		Panic:       fmt.Sprint(f.Panic),
	}
}

// entry is the on-disk document: the full key (so a read can verify the
// file answers the question asked), exactly one of report/sampled/fault,
// and a checksum over the rest of the document. Exact keys (Key.Sample
// empty) carry a Report; sampled keys carry a Sampled estimate; either kind
// may carry a Fault instead.
type entry struct {
	Key     Key            `json:"key"`
	Report  *core.Report   `json:"report,omitempty"`
	Sampled *sample.Report `json:"sampled,omitempty"`
	Fault   *FaultRecord   `json:"fault,omitempty"`
	Sum     string         `json:"sum"`
}

// sum computes the entry checksum: SHA-256 of the canonical JSON encoding
// with the Sum field empty. encoding/json renders struct fields in
// declaration order and floats in shortest round-trip form, so the
// encoding — and therefore the checksum — is deterministic.
func (e entry) sum() (string, error) {
	e.Sum = ""
	b, err := json.Marshal(e)
	if err != nil {
		return "", err
	}
	s := sha256.Sum256(b)
	return "sha256:" + hex.EncodeToString(s[:]), nil
}

// Sentinel errors for callers that care why a Put was refused.
var (
	ErrReadOnly       = errors.New("resultstore: store is read-only")
	ErrNotPersistable = errors.New("resultstore: fault is environment-dependent, not persistable")
)

// Stats counts store behaviour since Open. Corrupt counts entries that
// failed verification and were quarantined; every one also counts as a
// miss, because that is what the caller observed.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Puts      uint64
	PutErrors uint64
	Corrupt   uint64
}

// Store is an on-disk content-addressed result store rooted at one
// directory. All methods are safe for concurrent use by any number of
// goroutines and processes: writes are atomic renames, and racing writers
// of the same key write byte-identical content, so last-writer-wins is
// indistinguishable from first-writer-wins.
type Store struct {
	dir      string
	version  string
	readOnly bool

	hits      atomic.Uint64
	misses    atomic.Uint64
	puts      atomic.Uint64
	putErrors atomic.Uint64
	corrupt   atomic.Uint64
}

// Open opens (creating if needed) a store rooted at dir, keyed by the
// process's CodeVersion. Opening never scans the directory; entries are
// touched only when their key is asked for.
func Open(dir string) (*Store, error) {
	return open(dir, CodeVersion(), false)
}

// OpenMode opens a store like Open, or, when readOnly is set, one that
// serves hits but refuses writes — for sharing a populated store with runs
// that must not mutate it.
func OpenMode(dir string, readOnly bool) (*Store, error) {
	return open(dir, CodeVersion(), readOnly)
}

func open(dir, version string, readOnly bool) (*Store, error) {
	if dir == "" {
		return nil, errors.New("resultstore: empty store directory")
	}
	s := &Store{dir: dir, version: version, readOnly: readOnly}
	if !readOnly {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	publishStore(s)
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Version returns the code version this store handle keys entries with.
func (s *Store) Version() string { return s.version }

// ReadOnly reports whether Put is refused.
func (s *Store) ReadOnly() bool { return s.readOnly }

// Stats returns a snapshot of the store counters.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:      s.hits.Load(),
		Misses:    s.misses.Load(),
		Puts:      s.puts.Load(),
		PutErrors: s.putErrors.Load(),
		Corrupt:   s.corrupt.Load(),
	}
}

// path returns the entry file for a key: two-level fan-out on the leading
// hash byte keeps directories small on big grids.
func (s *Store) path(k Key) string {
	h := k.hash()
	return filepath.Join(s.dir, "v1", h[:2], h+".json")
}

// Result is one job's outcome as the store holds it: exactly one of an
// exact Report (under a key with an empty Sample), a Sampled estimate
// (under a key carrying sample.Params.Key()), or a persistable Fault
// (under either kind of key).
type Result struct {
	Report  *core.Report
	Sampled *sample.Report
	Fault   *simfault.Fault
}

// validFor reports whether res is a payload k may hold: exactly one of the
// three, of the kind the key names, and never an environment-dependent
// fault. It is the single check both Read and Write apply.
func (res Result) validFor(k Key) bool {
	switch {
	case res.Report != nil:
		return res.Sampled == nil && res.Fault == nil && k.Sample == ""
	case res.Sampled != nil:
		return res.Fault == nil && k.Sample != ""
	case res.Fault != nil:
		return res.Fault.Persistable()
	}
	return false
}

// Read returns the result stored under k, verifying the checksum, the
// embedded key and the payload before trusting it. ok is false on any
// miss — absent entry, stale code version, or an entry that failed
// verification (which is quarantined on the way out).
func (s *Store) Read(k Key) (Result, bool) {
	path := s.path(k)
	data, err := os.ReadFile(path)
	if err != nil {
		s.misses.Add(1)
		return Result{}, false
	}
	var e entry
	if err := json.Unmarshal(data, &e); err != nil {
		s.quarantine(path, "undecodable entry")
		return Result{}, false
	}
	if want, err := e.sum(); err != nil || e.Sum != want {
		s.quarantine(path, "checksum mismatch")
		return Result{}, false
	}
	if e.Key != k {
		// The file answers a different question than its name claims —
		// a tampered or misplaced entry, never trusted.
		s.quarantine(path, "key mismatch")
		return Result{}, false
	}
	res := Result{Report: e.Report, Sampled: e.Sampled}
	if e.Fault != nil {
		res.Fault = e.Fault.Fault()
	}
	if !res.validFor(k) {
		s.quarantine(path, "invalid payload")
		return Result{}, false
	}
	s.hits.Add(1)
	return res, true
}

// Get is Read for callers that only ever ask for exact reports. A sampled
// key is a miss.
func (s *Store) Get(k Key) (*core.Report, *simfault.Fault, bool) {
	if k.Sample != "" {
		s.misses.Add(1)
		return nil, nil, false
	}
	res, ok := s.Read(k)
	return res.Report, res.Fault, ok
}

// quarantine moves a failed entry aside (best-effort: on a read-only
// directory the rename fails and the corrupt file simply stays) and
// reports the read as a corrupt miss.
func (s *Store) quarantine(path, _ string) {
	s.corrupt.Add(1)
	s.misses.Add(1)
	os.Rename(path, path+".corrupt") //nolint:errcheck // best-effort; read-only stores keep the file
}

// Write lands one result atomically: marshal, temp file in the final
// directory, rename. res must be valid for k (see Result); an
// environment-dependent fault is refused with ErrNotPersistable (see
// simfault.Fault.Persistable).
func (s *Store) Write(k Key, res Result) error {
	err := s.write(k, res)
	if err != nil {
		s.putErrors.Add(1)
	} else {
		s.puts.Add(1)
	}
	return err
}

// Put is Write for an exact report or its fault.
func (s *Store) Put(k Key, rep *core.Report, f *simfault.Fault) error {
	return s.Write(k, Result{Report: rep, Fault: f})
}

func (s *Store) write(k Key, res Result) error {
	if s.readOnly {
		return ErrReadOnly
	}
	if res.Fault != nil && !res.Fault.Persistable() {
		return ErrNotPersistable
	}
	if !res.validFor(k) {
		return errors.New("resultstore: a result must be exactly one of report (exact key), sampled (sampled key) or fault")
	}
	e := entry{Key: k, Report: res.Report, Sampled: res.Sampled}
	if res.Fault != nil {
		e.Fault = recordFault(res.Fault)
	}
	sum, err := e.sum()
	if err != nil {
		return err
	}
	e.Sum = sum
	data, err := json.Marshal(&e)
	if err != nil {
		return err
	}
	path := s.path(k)
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, ".put-*")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name()) //nolint:errcheck // cleanup of our own temp file
		if werr != nil {
			return werr
		}
		return cerr
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name()) //nolint:errcheck // cleanup of our own temp file
		return err
	}
	return nil
}
