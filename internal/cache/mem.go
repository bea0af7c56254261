package cache

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"io"
	"sync"
	"time"
)

// Mem is an in-memory Store: the local tier of a peered daemon running
// without a -cache directory, and a convenient backend for tests. A
// process that shares one Mem keeps every result it ever stored, so
// entries are kept deflated (results JSON shrinks about fourfold at
// BestSpeed) and then sealed exactly like Disk's: the checksum covers the
// compressed bytes, so any corrupted stored byte is a miss and corruption
// detection (and the conformance suite) covers Mem identically. Get
// returns the inflated payload; Handler re-seals it, so the wire format
// does not change.
type Mem struct {
	counters
	mu sync.RWMutex
	m  map[string][]byte
}

// NewMem returns an empty in-memory store.
func NewMem() *Mem { return &Mem{m: make(map[string][]byte)} }

// Get returns the value stored under key.
func (s *Mem) Get(key string) ([]byte, bool, error) {
	if err := ValidKey(key); err != nil {
		return nil, false, err
	}
	defer obsMem.gets.ObserveSince(time.Now())
	s.mu.RLock()
	data, ok := s.m[key]
	s.mu.RUnlock()
	if !ok {
		s.misses.Add(1)
		obsMem.misses.Inc()
		return nil, false, nil
	}
	packed, ok := unseal(data)
	var payload []byte
	if ok {
		payload, ok = inflate(packed)
	}
	if !ok {
		s.corrupt.Add(1)
		s.misses.Add(1)
		obsMem.misses.Inc()
		return nil, false, nil
	}
	s.hits.Add(1)
	obsMem.hits.Inc()
	return payload, true, nil
}

// Put stores value under key, replacing any previous entry.
func (s *Mem) Put(key string, value []byte) error {
	if err := ValidKey(key); err != nil {
		return err
	}
	defer obsMem.puts.ObserveSince(time.Now())
	sealed := deflateSealed(value)
	s.mu.Lock()
	s.m[key] = sealed
	s.mu.Unlock()
	s.puts.Add(1)
	return nil
}

// Stats returns a snapshot of the store's counters.
func (s *Mem) Stats() Stats { return s.snapshot() }

// corruptEntry flips a byte of the raw stored entry (tests only).
func (s *Mem) corruptEntry(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, ok := s.m[key]
	if !ok || len(data) == 0 {
		return false
	}
	cp := append([]byte(nil), data...)
	cp[len(cp)-1] ^= 0xff
	s.m[key] = cp
	return true
}

// deflater is a pooled compressor with its output buffer.
type deflater struct {
	buf bytes.Buffer
	w   *flate.Writer
}

// inflater is a pooled decompressor reading from rd. A bytes.Reader is an
// io.ByteReader, so Reset wraps no bufio.Reader around it.
type inflater struct {
	rd   bytes.Reader
	r    io.ReadCloser
	tail [1]byte // probes for the end of the stream
}

var (
	deflaters = sync.Pool{New: func() any {
		w, _ := flate.NewWriter(nil, flate.BestSpeed) // valid level: no error
		return &deflater{w: w}
	}}
	inflaters = sync.Pool{New: func() any {
		in := &inflater{}
		in.r = flate.NewReader(&in.rd)
		return in
	}}
)

// deflateSealed returns the sealed entry Mem stores for value: the
// value's length as a uvarint, then its deflate stream, in one envelope
// of exactly that size.
func deflateSealed(value []byte) []byte {
	d := deflaters.Get().(*deflater)
	defer deflaters.Put(d)
	d.buf.Reset()
	var n [binary.MaxVarintLen64]byte
	d.buf.Write(n[:binary.PutUvarint(n[:], uint64(len(value)))])
	d.w.Reset(&d.buf)
	// Writing to a bytes.Buffer cannot fail, so neither can Write or Close.
	d.w.Write(value)
	d.w.Close()
	return seal(d.buf.Bytes())
}

// inflate reverses deflateSealed's packing into a payload of exactly the
// recorded length; ok is false unless the stream inflates to exactly that
// many bytes and ends where packed does.
func inflate(packed []byte) ([]byte, bool) {
	n, k := binary.Uvarint(packed)
	if k <= 0 {
		return nil, false
	}
	in := inflaters.Get().(*inflater)
	defer inflaters.Put(in)
	in.rd.Reset(packed[k:])
	if err := in.r.(flate.Resetter).Reset(&in.rd, nil); err != nil {
		return nil, false
	}
	out := make([]byte, n)
	if _, err := io.ReadFull(in.r, out); err != nil {
		return nil, false
	}
	if m, err := in.r.Read(in.tail[:]); m != 0 || err != io.EOF || in.rd.Len() != 0 {
		return nil, false
	}
	return out, true
}
