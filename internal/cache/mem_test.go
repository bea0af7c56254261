package cache

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"
)

// resultsJSON returns about size bytes of results-shaped JSON: per-node
// records with full-precision floats, the mix a stored Results holds.
func resultsJSON(size int) []byte {
	rng := rand.New(rand.NewPCG(uint64(size), 3))
	var b bytes.Buffer
	b.WriteString(`{"per_node":[`)
	for i := 0; b.Len() < size; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"node":%d,"energy_j":%v,"tx_j":%v,"rx_j":%v,"idle_j":%v,"sleep_j":%v,"forwarded":%d}`,
			i, rng.Float64()*300, rng.Float64()*20, rng.Float64()*40, rng.Float64()*200, rng.Float64(), rng.IntN(5000))
	}
	b.WriteString(`]}`)
	return b.Bytes()
}

// TestMemStoresDeflated: Mem keeps the compressed entry, and Get inflates
// it back to the exact bytes, in a buffer of exactly their length that
// does not alias the store.
func TestMemStoresDeflated(t *testing.T) {
	for _, size := range []int{0, 1, 100, 32 << 10, 325 << 10} {
		s := NewMem()
		value := resultsJSON(size)
		if size == 0 {
			value = []byte{}
		}
		if err := s.Put(key, value); err != nil {
			t.Fatal(err)
		}
		if stored := len(s.m[key]); size >= 32<<10 && stored > len(value)/2 {
			t.Errorf("size %d: stored entry is %d bytes, want under half the value", size, stored)
		}
		got, ok, err := s.Get(key)
		if !ok || err != nil || !bytes.Equal(got, value) {
			t.Fatalf("size %d: Get = (%d bytes, %v, %v), want the %d stored bytes", size, len(got), ok, err, len(value))
		}
		if cap(got) != len(got) {
			t.Errorf("size %d: payload cap %d, want exact length %d", size, cap(got), len(got))
		}
		if len(got) > 0 {
			got[0] ^= 0xff
			if again, _, _ := s.Get(key); !bytes.Equal(again, value) {
				t.Fatalf("size %d: mutating a returned payload changed the stored entry", size)
			}
		}
	}
}

// TestMemConcurrentDeflate: goroutines sharing one Mem (and the pooled
// flate writers and readers) each get back exactly the bytes they stored.
func TestMemConcurrentDeflate(t *testing.T) {
	s := NewMem()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				k := fmt.Sprintf("fp%02d%03d", g, i)
				value := resultsJSON(1 + (g*20+i)*97)
				if err := s.Put(k, value); err != nil {
					t.Error(err)
					return
				}
				if got, ok, err := s.Get(k); !ok || err != nil || !bytes.Equal(got, value) {
					t.Errorf("%s: Get = (%d bytes, %v, %v), want %d bytes", k, len(got), ok, err, len(value))
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestMemInflateRejectsTruncatedStream: a packed entry whose deflate
// stream is cut short or carries extra bytes does not inflate, even
// behind a valid envelope.
func TestMemInflateRejectsTruncatedStream(t *testing.T) {
	value := resultsJSON(4 << 10)
	packed, ok := unseal(deflateSealed(value))
	if !ok {
		t.Fatal("fresh entry fails its own envelope")
	}
	if got, ok := inflate(packed); !ok || !bytes.Equal(got, value) {
		t.Fatal("intact stream does not inflate to the value")
	}
	if _, ok := inflate(packed[:len(packed)-4]); ok {
		t.Error("truncated stream inflated")
	}
	if _, ok := inflate(append(append([]byte(nil), packed...), 0)); ok {
		t.Error("stream with trailing bytes inflated")
	}
}

// BenchmarkMemStore is the cache get/put rung for the in-memory backend,
// at the sizes of a 50-node paper-field result (~32 KB) and a field-1k
// result (~325 KB): Put deflates and seals, Get verifies and inflates.
func BenchmarkMemStore(b *testing.B) {
	for _, size := range []struct {
		name string
		n    int
	}{{"32KB", 32 << 10}, {"325KB", 325 << 10}} {
		value := resultsJSON(size.n)
		b.Run("put/"+size.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(value)))
			s := NewMem()
			for i := 0; i < b.N; i++ {
				if err := s.Put(key, value); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("get/"+size.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(value)))
			s := NewMem()
			if err := s.Put(key, value); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				if _, ok, err := s.Get(key); !ok || err != nil {
					b.Fatalf("Get = (%v, %v)", ok, err)
				}
			}
		})
	}
}
