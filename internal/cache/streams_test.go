package cache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"
)

var updateDesigns = flag.Bool("update", false, "rewrite testdata/designs.json from the current cache models")

const designsPath = "testdata/designs.json"

// streamGeometries are the (capacity, ways) points every design is pinned
// at: one set for Piccolo's 1KB, and set counts from 32 to 256.
var streamGeometries = []struct {
	capacity uint64
	ways     int
}{{1 << 10, 4}, {8 << 10, 8}, {32 << 10, 16}}

// streamAddr is an xorshift stream of 8B-word accesses, a third of them
// writes, over three ranges: half the accesses to a hot range half the
// cache's size, three eighths to a warm range four times its size, and an
// eighth to a cold range 256 times its size.
type streamAddr struct{ x, capacity uint64 }

func (s *streamAddr) next() (addr uint64, write bool) {
	s.x ^= s.x << 13
	s.x ^= s.x >> 7
	s.x ^= s.x << 17
	r := s.x >> 3
	switch {
	case s.x&7 < 4:
		addr = r % (s.capacity / 2)
	case s.x&7 < 7:
		addr = 1<<30 + r%(4*s.capacity)
	default:
		addr = 1<<34 + r%(256*s.capacity)
	}
	return addr &^ 7, r%3 == 0
}

// streamDigest drives n accesses of the stream through c, flushing every
// 50 000, and hashes every hit flag, fetch and eviction, then the final
// Stats and Name.
func streamDigest(c Cache, capacity uint64, n int) string {
	h := sha256.New()
	var buf []byte
	u64 := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	evictions := func(evs []Eviction) {
		u64(uint64(len(evs)))
		for _, e := range evs {
			u64(e.Addr)
			u64(e.Bytes)
			buf = append(buf, b2u8(e.Dirty))
		}
	}
	s := streamAddr{x: 88172645463325252, capacity: capacity}
	for i := 1; i <= n; i++ {
		res := c.Access(s.next())
		buf = append(buf[:0], b2u8(res.Hit))
		if !res.Hit {
			f := res.Fetch
			u64(f.Addr)
			u64(f.Bytes)
		}
		evictions(res.Evictions)
		if i%50_000 == 0 {
			evictions(c.Flush())
		}
		h.Write(buf)
	}
	binary.Write(h, binary.LittleEndian, *c.Stats())
	h.Write([]byte(c.Name()))
	return fmt.Sprintf("%x", h.Sum(nil))
}

func b2u8(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// TestDesignStreams pins every design's observable behaviour — each
// access's hit, fetch and evictions, every Flush, the final Stats and the
// Name — at several geometries. Regenerate with
// `go test ./internal/cache -run TestDesignStreams -update` only when a
// modelling change is intended.
func TestDesignStreams(t *testing.T) {
	got := map[string]string{}
	for _, d := range append(Designs(), DesignConventional) {
		for _, g := range streamGeometries {
			c, err := New(d, g.capacity, g.ways)
			if err != nil {
				t.Fatalf("%s: %v", d, err)
			}
			got[fmt.Sprintf("%s@%dKB/%dw", d, g.capacity>>10, g.ways)] = streamDigest(c, g.capacity, 120_000)
		}
	}
	if *updateDesigns {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(designsPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d streams)", designsPath, len(got))
		return
	}
	data, err := os.ReadFile(designsPath)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", designsPath, err)
	}
	if len(want) != len(got) {
		t.Errorf("%s holds %d streams, the designs give %d", designsPath, len(want), len(got))
	}
	for key, digest := range got {
		if want[key] != digest {
			t.Errorf("%s: behaviour changed: digest %s, pinned %s", key, digest, want[key])
		}
	}
}
