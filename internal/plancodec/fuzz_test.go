package plancodec

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"brsmn/internal/backend"
	"brsmn/internal/mcast"
	"brsmn/internal/rbn"
	"brsmn/internal/workload"
)

// routedBlobs encodes n=64 programs of every backend: a sparse and a
// dense random multicast, so the seeds hold single-pass brsmn programs,
// the multi-pass feedback program and multi-pass permnet programs.
func routedBlobs(tb testing.TB) [][]byte {
	tb.Helper()
	const n = 64
	backends, err := backend.All(n, rbn.Sequential)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(64))
	assignments := []mcast.Assignment{
		workload.Random(rng, n, 0.3, 0.1),
		workload.Random(rng, n, 0.9, 0.5),
	}
	var blobs [][]byte
	for _, tier := range backend.Tiers() {
		for _, a := range assignments {
			r, err := backends[tier].Route(a)
			if err != nil {
				tb.Fatal(err)
			}
			blob, err := Encode(n, r.Columns)
			if err != nil {
				tb.Fatal(err)
			}
			blobs = append(blobs, blob)
		}
	}
	return blobs
}

// header is a 13-byte plan header declaring n and count, with no body.
func header(n, count uint32) []byte {
	b := append([]byte(Magic), FormatVersion)
	b = binary.LittleEndian.AppendUint32(b, n)
	return binary.LittleEndian.AppendUint32(b, count)
}

// decodeAllocBytes decodes data and reports the heap bytes Decode
// allocated, along with its results.
func decodeAllocBytes(data []byte) (uint64, int, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n, cols, err := Decode(data)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(cols)
	return after.TotalAlloc - before.TotalAlloc, n, err
}

// allocBound is the most Decode may allocate for an input of the given
// length: a column header and its settings per 5 input bytes at worst
// (n = 2), plus slack for the error value.
func allocBound(inputLen int) uint64 { return 64*uint64(inputLen) + 4096 }

// TestDecodeRejectsOverstatedCount decodes bare headers whose column
// count the data cannot hold: each must fail without allocating for the
// declared count.
func TestDecodeRejectsOverstatedCount(t *testing.T) {
	for _, h := range [][]byte{header(2, 65025), header(1024, 65025), header(1<<31, 1)} {
		got, _, err := decodeAllocBytes(h)
		if err == nil {
			t.Fatalf("header %x decoded", h)
		}
		if bound := allocBound(len(h)); got > bound {
			t.Errorf("header %x: Decode allocated %d bytes, bound %d", h, got, bound)
		}
	}
}

// FuzzPlancodecDecode feeds Decode arbitrary bytes. Decoding must not
// panic, must allocate no more than the input length bounds, and a
// program it accepts must survive Encode and Decode unchanged.
func FuzzPlancodecDecode(f *testing.F) {
	for _, blob := range routedBlobs(f) {
		f.Add(blob)
		f.Add(blob[:len(blob)-1])
	}
	f.Add(header(2, 65025))
	f.Add(header(64, 0))
	f.Add([]byte("BRSP"))
	f.Fuzz(func(t *testing.T, data []byte) {
		allocated, _, err := decodeAllocBytes(data)
		if bound := allocBound(len(data)); allocated > bound {
			t.Fatalf("Decode of %d bytes allocated %d, bound %d", len(data), allocated, bound)
		}
		if err != nil {
			return
		}
		n, cols, _ := Decode(data)
		blob, err := Encode(n, cols)
		if err != nil {
			t.Fatalf("Encode rejected a decoded program: %v", err)
		}
		n2, cols2, err := Decode(blob)
		if err != nil {
			t.Fatalf("Decode rejected its own encoding: %v", err)
		}
		if n2 != n || !reflect.DeepEqual(cols2, cols) {
			t.Fatalf("Decode(Encode(n, cols)) differs: n %d -> %d, %d -> %d columns", n, n2, len(cols), len(cols2))
		}
	})
}
