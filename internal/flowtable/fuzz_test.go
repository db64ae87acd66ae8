package flowtable

import (
	"bytes"
	"fmt"
	"testing"
)

// FuzzFlowTable drives the open-addressed Table against a plain map
// through an op script, demanding identical observable results: every
// delete and lookup, then the full surviving contents.
func FuzzFlowTable(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x00, 0x05, 0x02, 0x05, 0x01, 0x05})
	f.Add([]byte{0x80, 0x00, 0x01, 0x00, 0x02, 0x00, 0x03, 0x01, 0x01, 0x02, 0x01, 0x02, 0x05})
	f.Add([]byte{0x00, 0x00, 0x10, 0x00, 0x11, 0x00, 0x12, 0x01, 0x11, 0x02, 0x10, 0x02, 0x11})
	f.Add(bytes.Repeat([]byte{0x80, 0x00, 0x07, 0x01, 0x07}, 64))
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) < 1 {
			return
		}
		// Header: the adversarial-hash bit, then 2-byte ops over a
		// deliberately small key space so collisions, deletes and
		// re-insertions happen constantly.
		hash := ident
		if script[0]&0x80 != 0 {
			hash = awfulHash
		}

		tab := New[uint64, uint64](0, hash)
		ref := map[uint64]uint64{}

		ops := script[1:]
		for i := 0; i+1 < len(ops); i += 2 {
			op, key := ops[i]%3, uint64(ops[i+1]&0x1f)
			val := uint64(i)
			switch op {
			case 0: // insert
				tab.Insert(key, val)
				ref[key] = val
			case 1: // delete
				got := tab.Delete(key)
				_, want := ref[key]
				if got != want {
					t.Fatalf("op %d: Delete(%d) = %v, reference %v", i, key, got, want)
				}
				delete(ref, key)
			case 2: // lookup
				gotV, gotOK := tab.Lookup(key)
				wantV, wantOK := ref[key]
				if gotOK != wantOK || gotV != wantV {
					t.Fatalf("op %d: Lookup(%d) = %d,%v; reference %d,%v", i, key, gotV, gotOK, wantV, wantOK)
				}
			}
		}

		// Full-content equivalence, both directions.
		if tab.Len() != len(ref) {
			t.Fatalf("table Len %d != reference %d", tab.Len(), len(ref))
		}
		seen := map[uint64]uint64{}
		tab.Range(func(k, v uint64) bool {
			if _, dup := seen[k]; dup {
				t.Fatalf("Range yielded key %d twice", k)
			}
			seen[k] = v
			return true
		})
		if fmt.Sprint(seen) != fmt.Sprint(ref) {
			t.Fatalf("table contents %v != reference %v", seen, ref)
		}
	})
}
